package fault

// Degraded reports whether this node was selected for slowdown.
func (nf *NodeFault) Degraded() bool { return nf.factor != 1 }
