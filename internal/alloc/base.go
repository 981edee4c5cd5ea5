package alloc

import "repro/internal/topology"

// Base holds a policy's topology.State and implements, once, the methods
// that only forward to it: Tree, FreeNodes, State, Release and Mirror of
// Allocator, and Begin, Rollback and Commit of TxnAllocator. A policy embeds
// it and adds Name, Allocate, Clone and its feasibility declarations.
//
// Embedding Base is correct only when the State is the policy's only mutable
// placement state: whatever Allocate keeps between calls is either rebuilt
// on each call (candidate buffers) or a cache the State validates (core's
// Scratch checks State.PodVersion before reusing a pod summary). The undo
// journal then covers a whole what-if pass, so the promoted
// Begin/Rollback/Commit are a sound TxnAllocator. A policy with other
// mutable placement state must not embed Base.
type Base struct {
	st *topology.State
}

// NewBase returns a Base over st; policies pass a fresh state from their
// constructor and a cloned one from Clone.
func NewBase(st *topology.State) Base { return Base{st: st} }

// Tree implements Allocator.
func (b *Base) Tree() *topology.FatTree { return b.st.Tree }

// FreeNodes implements Allocator.
func (b *Base) FreeNodes() int { return b.st.FreeNodes() }

// State implements Allocator.
func (b *Base) State() *topology.State { return b.st }

// Release implements Allocator.
func (b *Base) Release(p *topology.Placement) { p.Release(b.st) }

// Mirror implements Allocator: it charges an externally-produced placement
// against this state (used for what-if snapshots).
func (b *Base) Mirror(p *topology.Placement) { p.Apply(b.st) }

// Begin implements TxnAllocator.
func (b *Base) Begin() { b.st.Begin() }

// Rollback implements TxnAllocator.
func (b *Base) Rollback() { b.st.Rollback() }

// Commit implements TxnAllocator.
func (b *Base) Commit() { b.st.Commit() }
