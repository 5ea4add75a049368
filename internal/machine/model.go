package machine

// The machine model: the configuration a run is timed under and the
// counters it reports. Record (exec.go) reads only the limits,
// StackSlots and ALATSize (its ALAT decides which check loads reload);
// the latency fields and Pipelined are read by the timing engine alone
// (replay.go, replay_batch.go).

// Config tunes the machine model. Zero fields are normalized
// individually to their Defaults values, so a partial Config such as
// {Pipelined: true} or {ALATSize: 16} means "defaults plus this
// override". A latency or penalty field set to Free (any negative
// value) means explicitly zero cycles, which the zero value cannot
// express.
type Config struct {
	ALATSize     int // entries in the advanced load address table
	IntLoadLat   int // integer load latency (L1 hit on Itanium: 2)
	FPLoadLat    int // floating-point load latency (L2 on Itanium: 9)
	CheckHitLat  int // successful ld.c (paper: 0)
	CheckMissPen int // extra penalty on a failed check, on top of the reload
	StoreLat     int
	IntMulLat    int
	IntDivLat    int
	FPArithLat   int
	FPDivLat     int
	CallOverhead int
	// FenceLat is the cost of an OpFence speculation barrier under the
	// serial model; under the pipelined model a fence additionally stalls
	// until every in-flight result has retired (a scoreboard drain).
	FenceLat     int
	MaxSteps     int64
	MaxCallDepth int
	StackSlots   int
	// Pipelined switches the timing model from serial (cycles = sum of
	// latencies) to an in-order scoreboard: one instruction issues per
	// cycle and a consumer stalls until its operands' latencies have
	// elapsed. Under this model latency-driven scheduling
	// (codegen.ScheduleWorkers) overlaps load latency with independent work.
	Pipelined bool
}

// Free marks a latency or penalty field as explicitly zero-cost. Plain
// 0 in a Config field means "use the default" (the zero value must
// behave like Defaults()), so zero cycles needs a sentinel.
const Free = -1

// withDefaults normalizes a Config field by field: zero fields take
// their Defaults() value; negative latency/penalty fields (Free) become
// zero cycles. The old behavior — replacing the whole struct whenever
// ALATSize was zero — silently discarded explicit Pipelined, latency
// and MaxSteps overrides (and a Config with only ALATSize set ran with
// MaxSteps 0, faulting on the first instruction).
func (cfg Config) withDefaults() Config {
	d := Defaults()
	if cfg.ALATSize <= 0 {
		cfg.ALATSize = d.ALATSize
	}
	lat := func(f *int, def int) {
		if *f == 0 {
			*f = def
		} else if *f < 0 {
			*f = 0
		}
	}
	lat(&cfg.IntLoadLat, d.IntLoadLat)
	lat(&cfg.FPLoadLat, d.FPLoadLat)
	lat(&cfg.CheckHitLat, d.CheckHitLat)
	lat(&cfg.CheckMissPen, d.CheckMissPen)
	lat(&cfg.StoreLat, d.StoreLat)
	lat(&cfg.IntMulLat, d.IntMulLat)
	lat(&cfg.IntDivLat, d.IntDivLat)
	lat(&cfg.FPArithLat, d.FPArithLat)
	lat(&cfg.FPDivLat, d.FPDivLat)
	lat(&cfg.CallOverhead, d.CallOverhead)
	lat(&cfg.FenceLat, d.FenceLat)
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = d.MaxSteps
	}
	if cfg.MaxCallDepth <= 0 {
		cfg.MaxCallDepth = d.MaxCallDepth
	}
	if cfg.StackSlots <= 0 {
		cfg.StackSlots = d.StackSlots
	}
	return cfg
}

// Normalized returns the Config with every zero field resolved to its
// Defaults() value and Free sentinels resolved to zero cycles — the
// exact Config a Run with this value executes under. Callers that key
// caches by configuration (the trace cache in package repro) use it so
// equivalent Configs share entries.
func (cfg Config) Normalized() Config { return cfg.withDefaults() }

// SpecSavedCycles is the latency a retired speculative load saves under
// this model: the promoted load's latency minus the check load that
// replaces it (ld.c / ldf.c at CheckHitLat), floored at zero. It is the
// benefit term of the expected-cost speculation policy (core.Policy).
func (cfg Config) SpecSavedCycles(fp bool) int {
	n := cfg.withDefaults()
	lat := n.IntLoadLat
	if fp {
		lat = n.FPLoadLat
	}
	if s := lat - n.CheckHitLat; s > 0 {
		return s
	}
	return 0
}

// SpecRecoveryCycles is the latency a failed check costs under this
// model: the reload at full load latency plus the miss penalty. It is
// the cost term of the expected-cost speculation policy (core.Policy).
func (cfg Config) SpecRecoveryCycles(fp bool) int {
	n := cfg.withDefaults()
	lat := n.IntLoadLat
	if fp {
		lat = n.FPLoadLat
	}
	return lat + n.CheckMissPen
}

// Defaults is the Itanium-flavoured model from the paper's §5.2.
func Defaults() Config {
	return Config{
		ALATSize:   32,
		IntLoadLat: 2,
		FPLoadLat:  9,
		// the paper's successful ld.c has 0-cycle result latency; it
		// still occupies one issue slot in this in-order model
		CheckHitLat:  1,
		CheckMissPen: 4,
		StoreLat:     1,
		IntMulLat:    2,
		IntDivLat:    15,
		FPArithLat:   4,
		FPDivLat:     20,
		CallOverhead: 2,
		// a full-pipeline speculation barrier; modelled on the cost of a
		// srlz.d-style stop that waits out the deepest load latency
		FenceLat:     8,
		MaxSteps:     4_000_000_000,
		MaxCallDepth: 10000,
		StackSlots:   1 << 20,
	}
}

// Counters are the performance-monitor outputs of a run (the pfmon
// stand-in).
type Counters struct {
	Cycles           int64
	DataAccessCycles int64
	InstrsRetired    int64
	LoadsRetired     int64 // all load-class instructions, incl. checks
	CheckLoads       int64 // ld.c / ldf.c retired
	FailedChecks     int64 // checks that missed in the ALAT
	AdvLoads         int64 // ld.a / ldf.a retired
	SpecLoads        int64 // ld.s / ldf.s retired
	SpecLoadFaults   int64 // deferred faults (NaT set)
	Stores           int64
	ALATEvictions    int64 // capacity/conflict evictions
}

// FuncCounters are the per-function speculation counters of one run:
// the slice of Counters that online tier policy needs attributed to a
// function rather than program-summed. ALAT hits are
// CheckLoads−FailedChecks, so the pair carries the full hit/miss
// split; AdvLoads counts the table inserts those checks validate.
type FuncCounters struct {
	CheckLoads   int64
	FailedChecks int64
	AdvLoads     int64
}

// Result of a machine run.
type Result struct {
	Ret      int64
	Output   string
	Counters Counters
	// PerFunc maps a function name to its speculation counters. A
	// function has an entry iff it retired at least one advanced or
	// check load; the map is nil when no function did. The per-function
	// values sum to the corresponding program-wide Counters fields.
	PerFunc map[string]FuncCounters `json:",omitempty"`
}
