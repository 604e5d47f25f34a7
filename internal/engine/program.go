package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rtoss/internal/nn"
	"rtoss/internal/sparse"
	"rtoss/internal/tensor"
)

// Program is a model compiled once for execution: topological wavefront
// levels, per-layer kernel choices and the activation buffer plan
// (consumer counts). A Program is immutable after Compile and safe for
// concurrent use — one Program serves any number of goroutines; per-run
// state is borrowed from an internal pool. Recompile after mutating the
// model's weights (e.g. pruning) for the sparse dispatch to see the new
// zeros; the model must not be mutated while the Program is in use.
type Program struct {
	model     *nn.Model
	mode      Mode
	workers   int
	levels    [][]int
	consumers []int32 // times each layer's output is consumed as an input
	compiled  []*sparse.CompiledConv
	headIDs   []int // inputs of the model's Detect sink (nil if none)

	// imageShapes caches, per conv layer, [1, C, H, W] tensors with the
	// per-image shapes of its input and output at the last resolution a
	// batched run split it at; a split copies their headers (see
	// runState.imageViews). Data is nil: they carry only shape.
	imageShapes []atomic.Pointer[[2]*tensor.Tensor]

	// runs pools per-request state (activation arena, refcounts and
	// level fan-out) so steady-state serving reuses it across requests.
	runs sync.Pool
}

// Compile lowers a model into an immutable, shareable Program.
func Compile(m *nn.Model, opts Options) (*Program, error) {
	order, err := m.Graph().TopoSort()
	if err != nil {
		return nil, err
	}
	n := len(m.Layers)
	level := make([]int, n)
	maxLevel := 0
	for _, id := range order {
		for _, p := range m.Layers[id].Inputs {
			if level[p]+1 > level[id] {
				level[id] = level[p] + 1
			}
		}
		if level[id] > maxLevel {
			maxLevel = level[id]
		}
	}
	p := &Program{
		model:     m,
		mode:      opts.Mode,
		workers:   opts.Workers,
		levels:    make([][]int, maxLevel+1),
		consumers: make([]int32, n),
		compiled:  make([]*sparse.CompiledConv, n),

		imageShapes: make([]atomic.Pointer[[2]*tensor.Tensor], n),
	}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	for _, id := range order {
		p.levels[level[id]] = append(p.levels[level[id]], id)
		for _, pr := range m.Layers[id].Inputs {
			p.consumers[pr]++
		}
	}
	for _, l := range m.Layers {
		if l.Kind == nn.Detect {
			p.headIDs = append([]int(nil), l.Inputs...)
		}
	}
	if opts.Mode != ModeDense {
		dict := opts.PatternDict
		if dict == nil {
			dict = sparse.DefaultPatternDict()
		}
		cutoff := autoDensityCutoff
		if opts.Mode == ModeSparse {
			cutoff = 1 // every pruned layer, whatever its density
		}
		for _, l := range m.Layers {
			p.compiled[l.ID] = sparse.CompileConv(l, dict, cutoff)
		}
	}
	p.runs.New = func() any { return p.newRunState() }
	return p, nil
}

// Mode returns the program's dispatch policy.
func (p *Program) Mode() Mode { return p.mode }

// Model returns the model the program was compiled from. Treat it as
// read-only; mutating weights invalidates the compiled kernels.
func (p *Program) Model() *nn.Model { return p.model }

// Workers returns the per-level worker pool bound.
func (p *Program) Workers() int { return p.workers }

// MemoryBytes estimates the resident footprint of the Program: the
// model's parameter tensors plus the compiled sparse-kernel payloads.
// Per-run activation arenas are excluded — they are pooled per server,
// scale with resolution rather than with the model, and a registry
// budgeting which Programs to keep cares about the irreducible
// per-model cost. The estimate is deterministic for a given model, so
// LRU eviction decisions are reproducible.
func (p *Program) MemoryBytes() int64 {
	var n int64
	for _, l := range p.model.Layers {
		if l.Weight != nil {
			n += int64(len(l.Weight.Data)) * 4
		}
		if l.LinW != nil {
			n += int64(len(l.LinW.Data)) * 4
		}
		n += int64(len(l.Bias)+len(l.Gamma)+len(l.Beta)+len(l.LinB)) * 4
	}
	for _, cc := range p.compiled {
		if cc == nil {
			continue
		}
		if pc := cc.Pattern; pc != nil {
			n += int64(len(pc.Index)) + int64(len(pc.ValPtr))*4 + int64(len(pc.Values))*4
			for _, taps := range pc.DictTaps {
				n += int64(len(taps)) * 4
			}
		}
		if cs := cc.CSR; cs != nil {
			n += int64(len(cs.RowPtr))*4 + int64(len(cs.ColIdx))*4 + int64(len(cs.Values))*4
		}
	}
	return n
}

// SparseLayers returns how many conv layers were compiled to a sparse
// kernel (pattern-grouped and CSR counted separately).
func (p *Program) SparseLayers() (patternLayers, csrLayers int) {
	for _, cc := range p.compiled {
		if cc == nil {
			continue
		}
		if cc.Pattern != nil {
			patternLayers++
		} else {
			csrLayers++
		}
	}
	return patternLayers, csrLayers
}

// runState is the per-run execution state: the input, the layer output
// table and the level fan-out, plus — for runs that recycle activation
// buffers — the arena the buffers come from and the refcount/ownership
// planes. Recycling runs borrow it from the Program's pool: the arena
// outlives individual runs (that is the point of pooling — buffers warm
// up once), while the planes are reset on acquire. Retain-all runs
// (Forward) use a fresh state with a nil arena.
type runState struct {
	p     *Program
	input *tensor.Tensor
	outs  []*tensor.Tensor
	// splitBatch enables splitting a batched convolution across the
	// worker pool. It is set only while executing a level serially,
	// where the level scheduler leaves the pool idle — on conv levels
	// that fan out the layers themselves fill the workers, and nesting
	// a second pool per conv would oversubscribe the CPUs.
	splitBatch bool

	// arena is nil when retaining all outputs. refs counts the
	// remaining consumers of each layer's output, owned marks outputs
	// whose buffers came from the arena, and alias maps pass-through
	// outputs (Detect) to the layer that owns the buffer.
	arena *tensor.Arena
	refs  []int32
	owned []bool
	alias []int32

	// Level fan-out (see fanOut): the level being drained, its next
	// unclaimed node, the helpers still draining it, the first error
	// any node reported, and the helper body bound to this state.
	lvl      []int
	next     atomic.Int32
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
	helper   func()

	// Batch split (see convBatched), which runs only on serial levels
	// and so reuses next, wg and mu: the conv being split (nil when none
	// is), its per-image input/output views, and the first panic a
	// worker raised.
	splitLayer *nn.Layer
	split      []tensor.Tensor
	splitPanic any
}

func (p *Program) newRunState() *runState {
	n := len(p.model.Layers)
	return &runState{
		p:     p,
		outs:  make([]*tensor.Tensor, n),
		arena: tensor.NewArena(),
		refs:  make([]int32, n),
		owned: make([]bool, n),
		alias: make([]int32, n),
	}
}

// acquireRun borrows reset per-request state from the pool. Layers in
// keep get an extra reference so their output buffers are handed to the
// caller instead of being recycled through the arena.
func (p *Program) acquireRun(keep []int) *runState {
	rs := p.runs.Get().(*runState)
	n := len(p.model.Layers)
	copy(rs.refs, p.consumers)
	rs.refs[n-1]++ // the returned output is never recycled
	for _, id := range keep {
		rs.refs[id]++
	}
	for i := range rs.owned {
		rs.owned[i] = false
		rs.alias[i] = -1
	}
	return rs
}

// releaseRun returns per-request state (and its warm arena) to the
// pool, dropping its references to the caller's input and outputs.
func (p *Program) releaseRun(rs *runState) {
	rs.input, rs.lvl, rs.firstErr = nil, nil, nil
	clear(rs.outs)
	p.runs.Put(rs)
}
