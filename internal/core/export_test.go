package core

// NewEngine returns an engine set up by Init from slabs of its own.
func NewEngine(cfg Config, numPorts int, view PortView) *Engine {
	e := new(Engine)
	e.Init(cfg, numPorts, view, NewSlabs(1, numPorts, cfg.QueuesPerPort))
	return e
}
