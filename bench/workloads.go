package main

// workload is one traffic shape against one deployment. README.md says
// why each was chosen.
type workload struct {
	name   string
	sut    sutSpec
	model  string
	delta  float64 // per-stream precision width δ of the load streams
	signal signalKind
	// fanin > 0 loads that many registered streams with raw updates (no
	// source filters) through one batcher per connection; 0 loads one
	// filtered stream per connection.
	fanin int

	// The two constants below were frozen from a calibration run on the
	// machine README.md names and are never recomputed from a run, so
	// that every run of a seed does the same work and a faster system
	// cannot change the load its latency is measured under.
	// satCount is the readings in the saturate phase at -seconds 12 (about
	// 6 s on that machine). On the TCP workloads it is 20 slices of a whole
	// number of input blocks; saturate rounds other lengths to that.
	satCount  int
	pacedRate float64 // readings/s offered in the paced phase: about a quarter of the saturated rate
}

// baseSeconds is the -seconds value the frozen counts are stated for;
// other values scale every count in proportion.
const baseSeconds = 12

var workloads = []workload{
	{
		name: "tcp_sparse", model: "linear", delta: 0.19, signal: smooth,
		satCount: 20 * 11 * blockLen, pacedRate: 600_000,
	},
	{
		name: "tcp_durable_dense", sut: sutSpec{durable: true}, model: "linear", delta: 1e-6, signal: walk,
		satCount: 20 * 2 * blockLen, pacedRate: 130_000,
	},
	{
		name: "udp_fanin", sut: sutSpec{udp: true}, model: "constant", delta: 1e-6, signal: smooth, fanin: 20_000,
		satCount: 10_800_000, pacedRate: 450_000,
	},
	{
		name: "routed_rw", sut: sutSpec{routed: true}, model: "linear", delta: 1e-6, signal: walk,
		satCount: 20 * 2 * blockLen, pacedRate: 100_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
