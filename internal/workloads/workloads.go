// Package workloads provides the eight MiniC benchmark kernels modelled on
// the SPEC2000 programs evaluated in the paper (§5.2): each reproduces the
// memory-aliasing structure that drives the paper's numbers — references
// that the compile-time alias analysis must treat as may-aliases (all
// allocations flow through shared helpers, so Steensgaard merges their
// classes, as ORC's per-module analysis conservatively does for pointer
// parameters) but that rarely or never collide at run time. The
// speculative optimizer's win, check ratio and mis-speculation ratio on
// these kernels reproduce the shape of the paper's Figures 10-12.
package workloads

// Workload couples a kernel with its training and reference inputs.
type Workload struct {
	Name string
	// Description of which SPEC2000 program the kernel models and why.
	Description string
	Src         string
	// ProfileArgs is the training input (alias/edge profiling run).
	ProfileArgs []int64
	// RefArgs is the reference input (measurement run); deliberately
	// larger and in some kernels differently shaped than the training
	// input, exercising input sensitivity.
	RefArgs []int64
	// FPHeavy marks kernels dominated by floating-point loads (9-cycle
	// L2 latency on the modelled Itanium).
	FPHeavy bool
}

// All returns the eight kernels in the paper's presentation order.
func All() []Workload {
	return []Workload{
		gzip(), vpr(), mcf(), equake(), art(), ammp(), bzip2(), twolf(),
	}
}

// ByName returns the named kernel.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Hidden returns the kernels that are servable by name but excluded
// from All(), so the §5 report tables and the server's workload listing
// keep their published shape. drift is the input-controlled
// mis-speculation kernel: its alias behaviour is an input parameter,
// which makes it useless for the paper's figures and ideal for
// exercising per-function overrides and mis-speculation recovery.
func Hidden() []Workload {
	return []Workload{drift()}
}

// Resolve returns the named kernel, searching the published set first
// and the hidden set second. Every by-name consumer (the eval API, the
// machine sweep, the server) resolves through here.
func Resolve(name string) (Workload, bool) {
	if w, ok := ByName(name); ok {
		return w, true
	}
	for _, w := range Hidden() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// drift is the input-controlled mis-speculation kernel: the second
// argument (mod) controls how often the hot function's stores collide
// with the promoted global, so an input can drift arbitrarily far from
// the training input. hot carries a site that aliases 1/mod of the
// time (1/16 under training) plus a site the training run never sees
// alias but that collides on half the iterations once mod drops below
// 4; stable's store target is input-invariant and never aliases, so a
// policy that gives up speculation program-wide forfeits its win.
func drift() Workload {
	return Workload{
		Name:        "drift",
		Description: "input-controlled alias drift kernel (hidden from report tables)",
		Src: `
int acc = 0;
int scratch = 0;

int hot(int n, int mod) {
	int sum = 0;
	for (int i = 0; i < n; i++) {
		int *p;
		int *r;
		if (i % mod == 0) { p = &acc; } else { p = &scratch; }
		if (mod < 4 && i % 2 == 0) { r = &acc; } else { r = &scratch; }
		int x = acc;
		*p = x + i;
		int a = acc;
		*r = a + i;
		int y = acc;
		sum = sum + x + a + y;
	}
	return sum;
}

int stable(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		int *q;
		if (n < 0) { q = &acc; } else { q = &scratch; }
		int x = acc;
		*q = x + i;
		int y = acc;
		s = s + x + y;
	}
	return s;
}

int main() {
	int n = arg(0);
	int mod = arg(1);
	int sum = hot(n, mod);
	sum = sum + stable(n);
	print(sum);
	return 0;
}`,
		ProfileArgs: []int64{256, 16},
		RefArgs:     []int64{256, 16},
	}
}

// equake models 183.equake's smvp (the paper's §5.1 case study): a sparse
// matrix-vector product where the compiler cannot separate the matrix A,
// the input vector v and the output vector w (all come from the shared
// allocator), yet they never overlap at run time. A-entry loads repeat
// within an iteration across w stores, and v[i] loads are loop-invariant
// in the inner loop.
func equake() Workload {
	return Workload{
		Name:        "equake",
		Description: "183.equake smvp sparse matrix-vector kernel (paper Fig. 9)",
		FPHeavy:     true,
		Src: `
double *dvec(int n) { return (double*)malloc(n); }
int *ivec(int n) { return (int*)malloc(n); }

void smvp(int nodes, double *A0, double *A1, double *A2,
          int *Acol, int *Aindex, double *v, double *w) {
	for (int i = 0; i < nodes; i++) {
		int anext = Aindex[i];
		int alast = Aindex[i + 1];
		double sum0 = 0.0;
		double sum1 = 0.0;
		double sum2 = 0.0;
		while (anext < alast) {
			int col = Acol[anext];
			sum0 += A0[anext] * v[col * 3];
			sum1 += A1[anext] * v[col * 3 + 1];
			sum2 += A2[anext] * v[col * 3 + 2];
			w[col * 3]     += A0[anext] * v[i * 3];
			w[col * 3 + 1] += A1[anext] * v[i * 3 + 1];
			w[col * 3 + 2] += A2[anext] * v[i * 3 + 2];
			anext++;
		}
		w[i * 3]     += sum0;
		w[i * 3 + 1] += sum1;
		w[i * 3 + 2] += sum2;
	}
}

int main() {
	int nodes = arg(0);
	int iters = arg(1);
	int deg = 4;
	int nnz = nodes * deg;
	double *A0 = dvec(nnz);
	double *A1 = dvec(nnz);
	double *A2 = dvec(nnz);
	int *Acol = ivec(nnz);
	int *Aindex = ivec(nodes + 1);
	double *v = dvec(nodes * 3);
	double *w = dvec(nodes * 3);
	int k = 0;
	for (int i = 0; i < nodes; i++) {
		Aindex[i] = k;
		for (int d = 0; d < deg; d++) {
			Acol[k] = (i + d * 7 + 1) % nodes;
			A0[k] = 0.5 + (double)((i + d) % 9) * 0.125;
			A1[k] = 0.25 + (double)((i * 3 + d) % 5) * 0.0625;
			A2[k] = 1.0 / (double)(1 + (i + d) % 11);
			k++;
		}
	}
	Aindex[nodes] = k;
	for (int i = 0; i < nodes * 3; i++) {
		v[i] = (double)(i % 17) * 0.3;
		w[i] = 0.0;
	}
	for (int t = 0; t < iters; t++) {
		smvp(nodes, A0, A1, A2, Acol, Aindex, v, w);
	}
	double check = 0.0;
	for (int i = 0; i < nodes * 3; i++) check += w[i];
	print(check);
	return 0;
}`,
		ProfileArgs: []int64{32, 2},
		RefArgs:     []int64{128, 6},
	}
}

// mcf models 181.mcf's network-simplex pricing loop: arcs and nodes are
// heap records reached through the shared allocator; node potentials are
// re-read across arc-flow stores that never touch them.
func mcf() Workload {
	return Workload{
		Name:        "mcf",
		Description: "181.mcf network-simplex arc pricing (pointer-chasing heap records)",
		Src: `
struct nodeS {
	int potential;
	int orientation;
	int mark;
};
struct arcS {
	int cost;
	int flow;
	int tail;
	int head;
};

int *ivec(int n) { return (int*)malloc(n); }

int price(int nnodes, int deg, struct arcS *arcs, struct nodeS *nodes) {
	int pushes = 0;
	for (int i = 0; i < nnodes; i++) {
		int first = i * deg;
		int last = first + deg;
		for (int a = first; a < last; a++) {
			// nodes[i].potential is invariant here but may-aliases the
			// arc-flow stores (both come from the shared allocator)
			int red = arcs[a].cost - nodes[i].potential + nodes[arcs[a].head].potential;
			if (red < 0) {
				arcs[a].flow += 1;
				pushes++;
			} else {
				arcs[a].flow -= arcs[a].flow > 0;
			}
			if (arcs[a].cost < -349) {
				// rare price adjustment: actually writes the location the
				// speculative promotion of nodes[i].potential relies on;
				// small training inputs never execute this store
				nodes[i].potential -= 1;
			}
		}
	}
	return pushes;
}

int main() {
	int nnodes = arg(0);
	int narcs = nnodes * 4;
	int rounds = arg(1);
	struct nodeS *nodes = (struct nodeS*)malloc(nnodes * 3);
	struct arcS *arcs = (struct arcS*)malloc(narcs * 4);
	int seed = 12345;
	for (int i = 0; i < nnodes; i++) {
		seed = (seed * 1103515245 + 12345) % 2147483647;
		if (seed < 0) seed = -seed;
		nodes[i].potential = seed % 1000 - 500;
		nodes[i].orientation = i % 2;
		nodes[i].mark = 0;
	}
	for (int a = 0; a < narcs; a++) {
		seed = (seed * 1103515245 + 12345) % 2147483647;
		if (seed < 0) seed = -seed;
		arcs[a].cost = seed % 700 - 350;
		arcs[a].flow = 0;
		arcs[a].tail = a % nnodes;
		arcs[a].head = (a * 7 + 3) % nnodes;
	}
	int total = 0;
	for (int r = 0; r < rounds; r++) {
		total += price(nnodes, 4, arcs, nodes);
		nodes[r % nnodes].potential += 1;
	}
	int checksum = total;
	for (int a = 0; a < narcs; a++) checksum += arcs[a].flow;
	print(checksum);
	return 0;
}`,
		ProfileArgs: []int64{32, 3},
		RefArgs:     []int64{128, 10},
	}
}

// art models 179.art's neural-network match phase: weight matrices and
// activation vectors (all through the shared allocator) with invariant
// weight loads across activation stores.
func art() Workload {
	return Workload{
		Name:        "art",
		Description: "179.art ART neural-network F1/F2 match loops",
		FPHeavy:     true,
		Src: `
double *dvec(int n) { return (double*)malloc(n); }

void pass(int f1, int f2, double *bus, double *tds, double *y, double *u) {
	for (int j = 0; j < f2; j++) {
		double sum = 0.0;
		for (int i = 0; i < f1; i++) {
			sum += u[i] * bus[j * f1 + i];
		}
		y[j] = sum;
	}
	for (int j = 0; j < f2; j++) {
		for (int i = 0; i < f1; i++) {
			tds[j * f1 + i] += 0.001 * (u[i] - y[j] * tds[j * f1 + i]);
		}
	}
}

int main() {
	int f1 = arg(0);
	int f2 = arg(1);
	int epochs = arg(2);
	double *bus = dvec(f1 * f2);
	double *tds = dvec(f1 * f2);
	double *y = dvec(f2);
	double *u = dvec(f1);
	for (int i = 0; i < f1 * f2; i++) {
		bus[i] = 0.1 + (double)(i % 13) * 0.01;
		tds[i] = 0.2 + (double)(i % 7) * 0.02;
	}
	for (int i = 0; i < f1; i++) u[i] = (double)(i % 5) * 0.25;
	for (int e = 0; e < epochs; e++) {
		pass(f1, f2, bus, tds, y, u);
	}
	double check = 0.0;
	for (int j = 0; j < f2; j++) check += y[j];
	for (int i = 0; i < f1 * f2; i++) check += tds[i];
	print(check);
	return 0;
}`,
		ProfileArgs: []int64{16, 8, 2},
		RefArgs:     []int64{48, 24, 4},
	}
}

// ammp models 188.ammp's non-bonded force loop: coordinate and force
// vectors reached through the shared allocator; the pivot atom's
// coordinates are re-read in the inner loop across force stores that the
// compiler cannot disambiguate from them.
func ammp() Workload {
	return Workload{
		Name:        "ammp",
		Description: "188.ammp molecular-dynamics non-bonded force kernel",
		FPHeavy:     true,
		Src: `
double *dvec(int n) { return (double*)malloc(n); }

void forces(int n, double *pos, double *frc) {
	for (int i = 0; i < n; i++) {
		double fx = 0.0;
		double fy = 0.0;
		double fz = 0.0;
		for (int j = i + 1; j < n; j++) {
			// pos[i*3+k] is invariant here but may-aliases the force
			// stores below (both arrays come from the shared allocator)
			double dx = pos[j * 3] - pos[i * 3];
			double dy = pos[j * 3 + 1] - pos[i * 3 + 1];
			double dz = pos[j * 3 + 2] - pos[i * 3 + 2];
			double r2 = dx * dx + dy * dy + dz * dz + 0.5;
			double inv = 1.0 / r2;
			frc[j * 3]     -= dx * inv;
			frc[j * 3 + 1] -= dy * inv;
			frc[j * 3 + 2] -= dz * inv;
			fx += dx * inv;
			fy += dy * inv;
			fz += dz * inv;
		}
		frc[i * 3]     += fx;
		frc[i * 3 + 1] += fy;
		frc[i * 3 + 2] += fz;
	}
}

int main() {
	int n = arg(0);
	int steps = arg(1);
	double *pos = dvec(n * 3);
	double *frc = dvec(n * 3);
	for (int i = 0; i < n; i++) {
		pos[i * 3] = (double)(i % 10) * 1.5;
		pos[i * 3 + 1] = (double)((i * 3) % 7) * 0.75;
		pos[i * 3 + 2] = (double)((i * 5) % 11) * 0.4;
		frc[i * 3] = 0.0;
		frc[i * 3 + 1] = 0.0;
		frc[i * 3 + 2] = 0.0;
	}
	for (int s = 0; s < steps; s++) {
		forces(n, pos, frc);
	}
	double check = 0.0;
	for (int i = 0; i < n * 3; i++) check += frc[i];
	print(check);
	return 0;
}`,
		ProfileArgs: []int64{12, 1},
		RefArgs:     []int64{40, 3},
	}
}

// twolf models 300.twolf's placement cost evaluation: cell and net tables
// read repeatedly while trial positions are written into a shadow table.
func twolf() Workload {
	return Workload{
		Name:        "twolf",
		Description: "300.twolf standard-cell placement cost evaluation",
		Src: `
int *ivec(int n) { return (int*)malloc(n); }

int wirecost(int ncells, int pivot, int *xpos, int *ypos, int *net, int *tmp) {
	int cost = 0;
	for (int c = 0; c < ncells; c++) {
		int other = net[c];
		// the pivot position loads are invariant but may-alias the
		// shadow-table stores
		int dx = xpos[c] - xpos[pivot];
		int dy = ypos[c] - ypos[pivot];
		if (dx < 0) dx = -dx;
		if (dy < 0) dy = -dy;
		cost += dx + dy + (xpos[other] > xpos[c]);
		tmp[c] = cost;
	}
	return cost;
}

int main() {
	int ncells = arg(0);
	int moves = arg(1);
	int *xpos = ivec(ncells);
	int *ypos = ivec(ncells);
	int *net = ivec(ncells);
	int *tmp = ivec(ncells);
	int seed = 99;
	for (int c = 0; c < ncells; c++) {
		seed = (seed * 1103515245 + 12345) % 2147483647;
		if (seed < 0) seed = -seed;
		xpos[c] = seed % 64;
		ypos[c] = (seed / 64) % 64;
		net[c] = (c * 13 + 5) % ncells;
	}
	int best = wirecost(ncells, 0, xpos, ypos, net, tmp);
	for (int m = 0; m < moves; m++) {
		int c = m % ncells;
		int oldx = xpos[c];
		xpos[c] = (oldx + m) % 64;
		int cost = wirecost(ncells, c, xpos, ypos, net, tmp);
		if (cost > best) {
			xpos[c] = oldx;
		} else {
			best = cost;
		}
	}
	print(best);
	return 0;
}`,
		ProfileArgs: []int64{32, 4},
		RefArgs:     []int64{96, 16},
	}
}

// gzip models 164.gzip's longest-match scan: streaming window reads with
// almost no reusable loads — the paper's example of a program with
// negligible check-conversion but a visible mis-speculation ratio on what
// little is converted.
func gzip() Workload {
	return Workload{
		Name:        "gzip",
		Description: "164.gzip LZ77 longest-match scan (streaming, little reuse)",
		Src: `
int *ivec(int n) { return (int*)malloc(n); }

int longest(int wsize, int *window, int pos, int cur) {
	int best = 0;
	int limit = wsize - cur;
	if (limit > 64) limit = 64;
	int len = 0;
	while (len < limit && window[pos + len] == window[cur + len]) {
		len++;
	}
	return len;
}

int main() {
	int wsize = arg(0);
	int probes = arg(1);
	int *window = ivec(wsize + 64);
	int *head = ivec(256);
	int seed = 7;
	for (int i = 0; i < wsize + 64; i++) {
		seed = (seed * 131 + 17) % 1024;
		window[i] = seed % 8;
	}
	for (int i = 0; i < 256; i++) head[i] = 0;
	int total = 0;
	for (int p = 0; p < probes; p++) {
		int cur = (p * 37) % wsize;
		int hash = (window[cur] * 8 + window[cur + 1]) % 256;
		int cand = head[hash];
		total += longest(wsize, window, cand, cur);
		head[hash] = cur;
		// the sentinel byte is loop-invariant and gets speculatively
		// promoted across the head-table stores...
		total += window[wsize - 1];
		// ...but the window occasionally slides over it (never during
		// the short training run): the paper's gzip-style rare
		// mis-speculation on a negligible check count
		if (p % 100 == 99) {
			window[wsize - 1] = p % 8;
		}
	}
	print(total);
	return 0;
}`,
		ProfileArgs: []int64{256, 64},
		RefArgs:     []int64{2048, 512},
	}
}

// vpr models 175.vpr's router cost propagation: per-node cost reads with
// occupancy updates to a structurally-aliased array.
func vpr() Workload {
	return Workload{
		Name:        "vpr",
		Description: "175.vpr FPGA routing cost propagation",
		Src: `
int *ivec(int n) { return (int*)malloc(n); }

int route(int nnodes, int *cost, int *occ, int *pred) {
	int total = 0;
	for (int i = 1; i < nnodes; i++) {
		int p = pred[i];
		int c = cost[p] + 1 + occ[p] * 3;
		if (c < cost[i]) {
			cost[i] = c;
			occ[i] += 1;
		}
		total += cost[i];
	}
	return total;
}

int main() {
	int nnodes = arg(0);
	int passes = arg(1);
	int *cost = ivec(nnodes);
	int *occ = ivec(nnodes);
	int *pred = ivec(nnodes);
	for (int i = 0; i < nnodes; i++) {
		cost[i] = 1000000;
		occ[i] = 0;
		pred[i] = (i * 7 + 3) % nnodes;
		if (pred[i] >= i && i > 0) pred[i] = i - 1;
	}
	cost[0] = 0;
	int total = 0;
	for (int p = 0; p < passes; p++) {
		total = route(nnodes, cost, occ, pred);
	}
	print(total);
	return 0;
}`,
		ProfileArgs: []int64{64, 3},
		RefArgs:     []int64{256, 10},
	}
}

// bzip2 models 256.bzip2's counting passes: histogram construction and
// prefix sums over a shared-allocator block.
func bzip2() Workload {
	return Workload{
		Name:        "bzip2",
		Description: "256.bzip2 counting-sort passes over the block",
		Src: `
int *ivec(int n) { return (int*)malloc(n); }

void countpass(int n, int *block, int *freq, int *ptr) {
	for (int i = 0; i < 256; i++) freq[i] = 0;
	for (int i = 0; i < n; i++) {
		freq[block[i]] += 1;
	}
	int acc = 0;
	for (int i = 0; i < 256; i++) {
		ptr[i] = acc;
		acc += freq[i];
	}
}

int main() {
	int n = arg(0);
	int passes = arg(1);
	int *block = ivec(n);
	int *freq = ivec(256);
	int *ptr = ivec(256);
	int seed = 3;
	for (int i = 0; i < n; i++) {
		seed = (seed * 75 + 74) % 65537;
		block[i] = seed % 256;
	}
	int check = 0;
	for (int p = 0; p < passes; p++) {
		countpass(n, block, freq, ptr);
		check += ptr[128] + freq[seed % 256];
		block[(p * 31) % n] = p % 256;
	}
	print(check);
	return 0;
}`,
		ProfileArgs: []int64{512, 3},
		RefArgs:     []int64{4096, 8},
	}
}
