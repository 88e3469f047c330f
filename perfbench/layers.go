package main

// layerMetric is one per-layer metric: its name and unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, in order.
// A metric a workload does not exercise reads 0.
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	for k := opKind(0); k < opOther; k++ {
		p := "core." + k.String()
		add("count", p+".count")
		add("us", p+".p50_us", p+".p99_us", p+".host_us")
	}
	add("count", "core.other.count")
	add("frac", "core.remote_frac", "core.pcache_hit_frac")
	add("count", "core.lease_acquires")
	for _, ph := range mdtestPhaseNames {
		add("1/s", "phase."+ph+".ops_per_s")
	}
	add("s", "phase.archiving.s", "phase.unarchiving.s")
	add("count", "rpc.calls")
	add("ratio", "rpc.calls_per_op")
	add("us", "rpc.queue_wait.mean_us", "rpc.queue_wait.p99_us", "rpc.service.mean_us", "rpc.service.p99_us")
	add("count", "rpc.timeouts", "rpc.drops", "rpc.shed")
	add("count", "lease.acquires", "lease.extensions", "lease.redirects", "lease.waits")
	add("us", "lease.acquire_wait.mean_us", "lease.acquire_wait.p99_us")
	add("count", "journal.ops", "journal.commits")
	add("ratio", "journal.ops_per_commit")
	add("count", "journal.appends", "journal.checkpoints", "journal.group_seals", "journal.barriers")
	add("us", "journal.commit.mean_us", "journal.commit.p99_us", "journal.commit_wait.mean_us", "journal.watermark.mean_us")
	add("count", "journal.errors")
	add("count", "cache.hits", "cache.misses")
	add("frac", "cache.hit_frac")
	add("count", "cache.readaheads", "cache.evictions", "cache.writebacks", "cache.writeback_errors")
	add("count", "objstore.puts", "objstore.gets", "objstore.deletes", "objstore.lists", "objstore.heads")
	add("MB", "objstore.put_mb", "objstore.get_mb")
	add("count", "objstore.errors")
	add("ratio", "objstore.calls_per_op", "objstore.write_amp", "objstore.read_amp")
	add("s", "host.wall_s")
	add("count", "host.mallocs", "host.gc_cycles")
	add("frac", "host.gc_cpu_frac")
	add("ratio", "host.virt_s_per_wall_s", "host.trace_overhead")
	for _, m := range cpuModules {
		add("frac", "cpu."+m)
	}
	add("frac", "error_frac", "sim.clock_drift_frac")
	return out
}()

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerValues computes one traced round's per-layer values; release calls
// it once the round's latencies are summarized.
func layerValues(r *round) map[string]float64 {
	v := map[string]float64{}
	calls := float64(r.calls)
	for k, s := range r.latency {
		p := "core." + opKind(k).String()
		v[p+".count"] = float64(s.n)
		if opKind(k) == opOther || s.n == 0 {
			continue
		}
		v[p+".p50_us"] = s.p50
		v[p+".p99_us"] = s.tail
		v[p+".host_us"] = s.hostUS
	}
	cl := r.cl1.sub(r.cl0)
	meta := cl.local + cl.remote
	v["core.remote_frac"] = frac(cl.remote, meta)
	v["core.pcache_hit_frac"] = frac(cl.pcache, meta)
	v["core.lease_acquires"] = float64(cl.acquires)
	for k, x := range r.phases {
		v[k] = x
	}

	s0, s1 := r.snap0, r.snap1
	d := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += s1.Counters[name] - s0.Counters[name]
		}
		return float64(n)
	}
	mean := func(name string) float64 {
		a, b := s0.Histograms[name], s1.Histograms[name]
		if b.Count == a.Count {
			return 0
		}
		return float64(b.SumNanos-a.SumNanos) / float64(b.Count-a.Count) / 1e3
	}
	p99 := func(name string) float64 { return float64(s1.Histograms[name].P99) / 1e3 }

	v["rpc.calls"] = d("rpc.calls")
	v["rpc.calls_per_op"] = d("rpc.calls") / calls
	v["rpc.queue_wait.mean_us"] = mean("rpc.queue.wait")
	v["rpc.queue_wait.p99_us"] = p99("rpc.queue.wait")
	v["rpc.service.mean_us"] = mean("rpc.queue.service")
	v["rpc.service.p99_us"] = p99("rpc.queue.service")
	v["rpc.timeouts"] = d("rpc.timeouts")
	v["rpc.drops"] = d("rpc.drops")
	v["rpc.shed"] = d("qos.shed.rpc.inbox", "qos.shed.rpc.wait", "qos.shed.core.admission",
		"qos.shed.core.brownout", "qos.shed.lease")

	v["lease.acquires"] = d("lease.acquires")
	v["lease.extensions"] = d("lease.extensions")
	v["lease.redirects"] = d("lease.redirects")
	v["lease.waits"] = d("lease.waits")
	v["lease.acquire_wait.mean_us"] = mean("core.lease.acquire.wait")
	v["lease.acquire_wait.p99_us"] = p99("core.lease.acquire.wait")

	v["journal.ops"] = d("journal.ops")
	v["journal.commits"] = d("journal.commits")
	if c := d("journal.commits"); c > 0 {
		v["journal.ops_per_commit"] = d("journal.ops") / c
	}
	v["journal.appends"] = d("journal.appends")
	v["journal.checkpoints"] = d("journal.checkpoints")
	v["journal.group_seals"] = d("journal.group.seals")
	v["journal.barriers"] = d("journal.barriers")
	v["journal.commit.mean_us"] = mean("journal.commit.latency")
	v["journal.commit.p99_us"] = p99("journal.commit.latency")
	v["journal.commit_wait.mean_us"] = mean("journal.commit.wait")
	v["journal.watermark.mean_us"] = mean("journal.watermark.latency")
	v["journal.errors"] = d("journal.commit.errors", "journal.checkpoint.errors")

	v["cache.hits"] = float64(cl.hits)
	v["cache.misses"] = float64(cl.misses)
	v["cache.hit_frac"] = frac(cl.hits, cl.hits+cl.misses)
	v["cache.readaheads"] = float64(cl.readaheads)
	v["cache.evictions"] = float64(cl.evicts)
	v["cache.writebacks"] = float64(cl.wbacks)
	v["cache.writeback_errors"] = float64(cl.wbErrs)

	storeCalls := d("objstore.put", "objstore.get", "objstore.getrange", "objstore.delete",
		"objstore.list", "objstore.head")
	v["objstore.puts"] = d("objstore.put")
	v["objstore.gets"] = d("objstore.get", "objstore.getrange")
	v["objstore.deletes"] = d("objstore.delete")
	v["objstore.lists"] = d("objstore.list")
	v["objstore.heads"] = d("objstore.head")
	v["objstore.put_mb"] = d("objstore.bytes.put") / (1 << 20)
	v["objstore.get_mb"] = d("objstore.bytes.get") / (1 << 20)
	v["objstore.errors"] = d("objstore.errors")
	v["objstore.calls_per_op"] = storeCalls / calls
	w, rd := r.rec.byteCounts()
	if w > 0 {
		v["objstore.write_amp"] = d("objstore.bytes.put") / float64(w)
	}
	if rd > 0 {
		v["objstore.read_amp"] = d("objstore.bytes.get") / float64(rd)
	}

	v["host.wall_s"] = r.wallS
	v["host.mallocs"] = float64(r.mallocs)
	v["host.gc_cycles"] = float64(r.gcCycles)
	if r.cpuS > 0 {
		v["host.gc_cpu_frac"] = r.gcCPUS / r.cpuS
	}
	if r.wallS > 0 {
		v["host.virt_s_per_wall_s"] = r.window.Seconds() / r.wallS
	}
	var samples int64
	for _, n := range r.cpuSamples {
		samples += n
	}
	for _, m := range cpuModules {
		v["cpu."+m] = frac(r.cpuSamples[m], samples)
	}
	v["error_frac"] = float64(r.failures()) / calls
	return v
}

// perLayer computes the per-layer metrics of a traced run: the median over
// traced rounds of each value, plus the tracing overhead against the
// untraced rounds of the same run.
func perLayer(traced, plain []*round) map[string]metric {
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.layer[lm.name]
		}
		out[lm.name] = metric{Value: median(xs), Unit: lm.unit}
	}
	cpuT := medianOf(traced, func(r *round) float64 { return r.cpuS })
	cpuP := medianOf(plain, func(r *round) float64 { return r.cpuS })
	if cpuP > 0 {
		out["host.trace_overhead"] = metric{Value: cpuT/cpuP - 1, Unit: "ratio"}
	}
	return out
}
