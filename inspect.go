package oscar

import "github.com/oscar-overlay/oscar/internal/p2p"

// KeyDump reports where a key lives on one node's stores, bypassing the
// protocol — an inspection hook for harnesses triaging durability or
// convergence failures (cmd/oscar-soak prints one per live node for every
// key that fails its teardown verification).
type KeyDump = p2p.KeyState

// DebugKey inspects this node's stores for k directly, without routing,
// under one hold of the node's lock.
func (n *Node) DebugKey(k Key) KeyDump { return n.inner.KeyState(k) }
