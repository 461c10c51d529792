package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bfc/internal/sim"
)

// TestPointKeysTheHash holds the one compiler to its contract: every field of
// a point keys the content hash of the job compiled from it. Starting from a
// Fig 15-shaped point, it sets each field in turn to another valid value and
// requires the job's hash to move. A field the point's digest cannot see —
// unexported (but scen, whose wire form Scenario is hashed), without a JSON
// name or tagged json:"-" — fails, and so does a field of a kind the test
// has no other value for, until it is given one here.
func TestPointKeysTheHash(t *testing.T) {
	scale := Tiny()
	ref, err := scale.traffic(scale.t1(), "google", 0.60, true, 15).withScenario(ScenarioLinkFailRecover(scale))
	if err != nil {
		t.Fatal(err)
	}
	ref.SimSeed = &defaultSeed
	hash := func(p point) string {
		j := p.job(scale.Name+"/point", sim.SchemeBFC, map[string]string{})
		return j.Hash()
	}
	base := hash(ref)
	// Other valid values for the fields a generic change would make invalid.
	alt := map[string]any{
		"Fabric":   scale.t2(),
		"Traffic":  "fanin",
		"Workload": "websearch",
		"Scenario": json.RawMessage(`{"name":"other","events":[]}`),
	}
	typ := reflect.TypeOf(ref)
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() {
			if f.Name != "scen" {
				t.Errorf("point.%s is unexported: the point's digest cannot see it", f.Name)
			}
			continue
		}
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" || name == "-" {
			t.Errorf("point.%s has no JSON name: the point's digest must see it under a name of its own", f.Name)
			continue
		}
		p := ref
		v := reflect.ValueOf(&p).Elem().Field(i)
		switch a, ok := alt[f.Name]; {
		case ok:
			v.Set(reflect.ValueOf(a))
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 0.125)
		case v.Kind() == reflect.Pointer && v.Elem().CanInt():
			n := reflect.New(f.Type.Elem())
			n.Elem().SetInt(v.Elem().Int() + 1)
			v.Set(n)
		default:
			t.Errorf("point.%s: no other value for a %s; give it one in alt", f.Name, f.Type)
			continue
		}
		if hash(p) == base {
			t.Errorf("point.%s changed and the job hash stayed %s", f.Name, base)
		}
	}
}
