package sim

// SinkKind returns the per-PC kind table of m's chunk sink, so a test
// can tell whether the sink reused a released machine's buffers.
func SinkKind(m *Machine) []byte { return m.sink.kind }
