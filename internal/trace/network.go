package trace

import (
	"fmt"

	"seal/internal/core"
	"seal/internal/gpu"
	"seal/internal/models"
)

// LayerTrace is the generated trace of one network layer.
type LayerTrace struct {
	Spec    models.LayerSpec
	Streams []gpu.Stream
}

// MemOps returns the memory operations in the layer trace.
func (lt LayerTrace) MemOps() int64 {
	var n int64
	for _, s := range lt.Streams {
		n += s.MemOps()
	}
	return n
}

// Network generates traces for every layer of the planned network, wired
// to the layout's regions in dataflow order. The caller runs them
// sequentially on one gpu.Sim (warm caches across layers), which models
// layer-by-layer kernel launches of an inference framework.
func Network(p Params, plan *core.Plan, layout *core.Layout) ([]LayerTrace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Batch != layout.Batch {
		return nil, fmt.Errorf("trace: params batch %d != layout batch %d", p.Batch, layout.Batch)
	}
	current := layout.Region("fmap:input")
	if current == nil {
		return nil, fmt.Errorf("trace: layout missing input region")
	}
	blockEntry := map[string]*core.Region{}
	var out []LayerTrace
	for _, s := range plan.Arch.Specs {
		var streams []gpu.Stream
		var err error
		switch s.Kind {
		case models.KindConv:
			in := current
			if s.ShortcutOf != "" {
				entry, ok := blockEntry[s.ShortcutOf]
				if !ok {
					return nil, fmt.Errorf("trace: shortcut %s before its block entry", s.Name)
				}
				in = entry
			} else if s.Residual {
				if bn := blockOf(s.Name); blockEntry[bn] == nil {
					blockEntry[bn] = current
				}
			}
			regions := LayerRegions{
				In:   in,
				Cols: layout.Region("cols:" + s.Name),
				W:    layout.Region("w:" + s.Name),
				Out:  layout.Region("fmap:" + s.Name),
			}
			streams, err = Conv(p, s, regions)
			if err == nil && s.ShortcutOf == "" {
				current = regions.Out
			}
		case models.KindPool, models.KindGlobalAvgPool:
			regions := LayerRegions{In: current, Out: layout.Region("fmap:" + s.Name)}
			if regions.Out == nil {
				return nil, fmt.Errorf("trace: layout missing region fmap:%s", s.Name)
			}
			streams, err = Pool(p, s, regions)
			if err == nil {
				current = regions.Out
			}
		case models.KindFC:
			regions := LayerRegions{
				In:  current,
				W:   layout.Region("w:" + s.Name),
				Out: layout.Region("fmap:" + s.Name),
			}
			streams, err = FC(p, s, regions)
			if err == nil {
				current = regions.Out
			}
		default:
			err = fmt.Errorf("trace: unhandled layer kind %v", s.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: layer %s: %w", s.Name, err)
		}
		out = append(out, LayerTrace{Spec: s, Streams: streams})
	}
	return out, nil
}

// blockOf trims the final name segment: "layer1.block2.conv1" →
// "layer1.block2".
func blockOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// RunNetwork executes all layer traces sequentially on sim and returns
// the per-layer results plus the whole-network aggregate (total cycles =
// inference latency in core cycles; aggregate IPC weighs layers by their
// instruction counts, matching how GPGPU-Sim reports whole-app IPC).
func RunNetwork(sim *gpu.Sim, traces []LayerTrace) (perLayer []gpu.Result, total gpu.Result, err error) {
	var cycles float64
	var insts, warp, mem, stall int64
	for _, lt := range traces {
		res, rerr := sim.Run(lt.Streams)
		if rerr != nil {
			return nil, gpu.Result{}, fmt.Errorf("trace: running %s: %w", lt.Spec.Name, rerr)
		}
		perLayer = append(perLayer, res)
		cycles += res.Cycles
		insts += res.ThreadInsts
		warp += res.WarpInsts
		mem += res.MemRequests
		stall += res.StallCycles
	}
	total = gpu.Result{
		Cycles:      cycles,
		WarpInsts:   warp,
		ThreadInsts: insts,
		MemRequests: mem,
		StallCycles: stall,
		Parts:       sim.Stats(),
	}
	if cycles > 0 {
		total.IPC = float64(insts) / cycles
	}
	return perLayer, total, nil
}
