package main

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/admit"
	"repro/internal/engine"
	"repro/internal/shard"
)

// serverStats is the part of GET /v1/stats?scope=local the benchmark
// reads.
type serverStats struct {
	Engine   engine.Stats `json:"engine"`
	Requests uint64       `json:"requests"`
	Shard    *shard.Stats `json:"shard"`
	Admit    *admit.Stats `json:"admit"`
}

// snapshot reads every node's local stats.
func (f *fleet) snapshot(ctx context.Context, hc *http.Client) ([]serverStats, error) {
	out := make([]serverStats, len(f.nodes))
	for i, nd := range f.nodes {
		if err := getJSON(ctx, hc, nd.url+"/v1/stats?scope=local", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serverLayers sets the per-layer metrics that come from the servers'
// own counters (deltas between two snapshots, summed over nodes) and
// the span trees and client timings of the window's traced scripts.
func serverLayers(out *outcome, before, after []serverStats, w *window) {
	lat := map[string][2]float64{}
	var maxSim, busy float64
	var workers int
	sum := map[string]float64{}
	var memHits, memMiss, diskHits, diskMiss float64
	for i := range after {
		a, b := after[i].Engine, before[i].Engine
		for kind, l := range a.Latency {
			p := b.Latency[kind]
			v := lat[kind]
			lat[kind] = [2]float64{v[0] + float64(l.Count-p.Count), v[1] + l.TotalMS - p.TotalMS}
		}
		maxSim = max(maxSim, a.Latency["sim"].MaxMS)
		workers += a.Sched.Workers
		for j, w := range a.Sched.PerWorker {
			busy += w.BusyMS
			if j < len(b.Sched.PerWorker) {
				busy -= b.Sched.PerWorker[j].BusyMS
			}
		}
		sum["sched.tasks"] += float64(a.Sched.Submitted - b.Sched.Submitted)
		sum["sched.steals"] += float64(a.Sched.Steals - b.Sched.Steals)
		sum["sched.parks"] += float64(a.Sched.Parks - b.Sched.Parks)
		sum["engine.executed"] += float64(a.Executed - b.Executed)
		sum["engine.deduped"] += float64(a.Deduped - b.Deduped)
		sum["engine.mem_evictions"] += float64(a.Cache.Evictions - b.Cache.Evictions)
		sum["engine.bytes_resident"] += float64(a.Cache.BytesResident)
		memHits += float64(a.Cache.Hits - b.Cache.Hits)
		memMiss += float64(a.Cache.Misses - b.Cache.Misses)
		if a.Disk != nil && b.Disk != nil {
			diskHits += float64(a.Disk.Hits - b.Disk.Hits)
			diskMiss += float64(a.Disk.Misses - b.Disk.Misses)
			sum["engine.disk_writes"] += float64(a.Disk.Writes - b.Disk.Writes)
		}
		if as, bs := after[i].Shard, before[i].Shard; as != nil && bs != nil {
			sum["shard.proxied"] += float64(as.Proxied - bs.Proxied)
			sum["shard.remote_fetches"] += float64(as.RemoteFetches - bs.RemoteFetches)
			sum["shard.fallbacks"] += float64(as.ProxyFallbacks-bs.ProxyFallbacks) +
				float64(as.BatchFallbackSpecs-bs.BatchFallbackSpecs)
			sum["shard.replica_pushes"] += float64(as.Replication.Pushed - bs.Replication.Pushed)
		}
		if aa, ba := after[i].Admit, before[i].Admit; aa != nil && ba != nil {
			sum["admit.admitted"] += float64(aa.Admitted - ba.Admitted)
			sum["admit.bypassed"] += float64(aa.Bypassed - ba.Bypassed)
			sum["admit.rejected"] += float64(aa.RejectedFull+aa.RejectedDeadline+aa.RejectedWait) -
				float64(ba.RejectedFull+ba.RejectedDeadline+ba.RejectedWait)
		}
	}
	layerCalls(out, lat, 1)
	out.layer["cluster.max_ms"] = maxSim
	out.layer["cluster.ms_per_minstr"] = perMinstr(lat["sim"][1], w.committed)
	out.layer["sched.busy_ratio"] = ratio(busy, float64(workers)*ms(w.wall))
	out.layer["engine.mem_hit_ratio"] = ratio(memHits, memHits+memMiss)
	out.layer["engine.disk_hit_ratio"] = ratio(diskHits, diskHits+diskMiss)
	for _, k := range []string{"sched.tasks", "sched.steals", "sched.parks", "engine.executed", "engine.deduped",
		"engine.mem_evictions", "engine.bytes_resident", "engine.disk_writes", "shard.remote_fetches",
		"shard.fallbacks", "shard.replica_pushes", "admit.admitted", "admit.bypassed", "admit.rejected"} {
		out.layer[k] = sum[k]
	}
	out.layer["shard.proxied_ratio"] = sum["shard.proxied"] / float64(w.ops.attempted)
	out.layer["shard.forward_extra_ms"] = medianOrZero(w.forwarded) - medianOrZero(w.local)
	// The serving workloads run no in-process pipeline: the runtime
	// counters are the figures workload's.
	for _, k := range []string{"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_ms"} {
		out.layer[k] = 0
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "expt.") {
			out.layer[m.name] = 0
		}
	}
	serverSpans(out, w.trees)
	out.layer["trace.overhead_ratio"] = overhead(w.tracedSingle, w.single)
}

// overhead is the traced median over the untraced one, minus one (0
// when either side has no sample).
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

// serverSpans reduces the server trees of sampled requests to the
// server.* metrics: time from the http span's start to its first exec
// span, and the http span's self time on requests every artifact of
// which came from a store tier.
func serverSpans(out *outcome, trees []*serverTrace) {
	var preExec, warmSelf []float64
	for _, t := range trees {
		t.walk(func(s *serverSpan) {
			if !strings.HasPrefix(s.Name, "http ") {
				return
			}
			first := int64(-1)
			execs, hits := 0, 0
			var sub serverTrace
			sub.Roots = s.Children
			sub.walk(func(c *serverSpan) {
				if !strings.HasPrefix(c.Name, "exec ") || c.Name == "exec batch" {
					return
				}
				execs++
				if tier := c.Attrs["tier"]; tier == "mem" || tier == "disk" {
					hits++
				}
				if first < 0 || c.Start < first {
					first = c.Start
				}
			})
			if first >= 0 {
				preExec = append(preExec, float64(first-s.Start)/1e6)
			}
			if execs > 0 && hits == execs {
				warmSelf = append(warmSelf, ms(s.selfTime()))
			}
		})
	}
	out.layer["server.pre_exec_ms"] = medianOrZero(preExec)
	out.layer["server.warm_self_ms"] = medianOrZero(warmSelf)
	out.info["server_trees"] = float64(len(trees))
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
