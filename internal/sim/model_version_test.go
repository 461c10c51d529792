package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// modelVersionPath pairs ModelVersion with a sha256 over the golden digests
// it was declared for. A change that moves a golden digest re-records
// golden.json or golden_scenario.json; this file makes it bump ModelVersion
// too, so no store serves a record the previous model computed under the
// new model's hash. A change that moves no digest never touches it.
const modelVersionPath = "testdata/model_version.json"

type modelVersionRecord struct {
	ModelVersion  int    `json:"model_version"`
	GoldensSHA256 string `json:"goldens_sha256"`
}

// goldensSHA256 hashes every pinned digest, one "file key digest" line each in
// file and key order, so reformatting a golden file does not count as a move.
func goldensSHA256(paths ...string) (string, error) {
	h := sha256.New()
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		digests := map[string]string{}
		if err := json.Unmarshal(blob, &digests); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		keys := make([]string, 0, len(digests))
		for k := range digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %s %s\n", path, k, digests[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestModelVersionTracksGoldens(t *testing.T) {
	blob, err := os.ReadFile(modelVersionPath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded modelVersionRecord
	if err := json.Unmarshal(blob, &recorded); err != nil {
		t.Fatalf("%s: %v", modelVersionPath, err)
	}
	sum, err := goldensSHA256(goldenPath, goldenScenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case recorded.ModelVersion == ModelVersion && recorded.GoldensSHA256 != sum:
		t.Fatalf("the model changed: bump sim.ModelVersion (still %d): the golden digests moved "+
			"(sha256 %s, %s records %s)", ModelVersion, sum, modelVersionPath, recorded.GoldensSHA256)
	case recorded.ModelVersion != ModelVersion:
		want, _ := json.MarshalIndent(modelVersionRecord{ModelVersion, sum}, "", "  ")
		t.Fatalf("sim.ModelVersion is %d but %s records %d: write it as\n%s",
			ModelVersion, modelVersionPath, recorded.ModelVersion, want)
	}
}
