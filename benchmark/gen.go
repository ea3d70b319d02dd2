package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tpal/internal/minipar"
	"tpal/internal/serve"
	"tpal/internal/tpal/programs"
)

// expect is what the generator knows a request must come to, decided
// without running the engine under test: result registers come from the
// sequential source interpreter (minipar.Interpret) or a closed form,
// statuses and TP codes from the class the request was drawn from.
type expect struct {
	Status string // done | rejected | budget_exceeded
	Code   string // TP code a rejection must carry
	Reg    string // result register checked on done ("" = status only)
	Val    int64
}

// request is one generated submission.
type request struct {
	Class  string
	Submit serve.SubmitRequest
	Body   []byte // Submit as JSON, what goes on the wire
	Expect expect
}

// stream is one workload's generated request sequence. The sequence and
// its hash are a function of (workload, seed) alone.
type stream struct {
	Reqs []request
	Warm int // the first Warm requests are the warm-up
	// Block is the stratification unit after the warm-up: every Block
	// consecutive requests hold each class in exactly its weight. The
	// phases send whole blocks, so the mix they measure is the same on
	// every run and every seed.
	Block int
	SHA   string
}

const tenants = 32

// class is one kind of request in a mix; make draws one instance.
// weight is its count per block: the stream is stratified, every run of
// sum-of-weights consecutive requests holding each class in exactly its
// weight, in a seeded order, so a phase that consumes a few hundred
// requests sees the same mix on every seed and only the order and the
// arguments vary.
type class struct {
	name   string
	weight int
	make   func(g *gen) request
}

// gen carries the generator state of one stream.
type gen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	root string
	// fresh counts draws per class and perms holds one seeded
	// permutation per class, so "cold" arguments never repeat within a
	// stream and their sizes do not drift along it.
	fresh map[string]int64
	perms map[string][]int
	// oracle memoizes the source interpreter per (program, args).
	oracle map[string]int64
	progs  map[string]*minipar.Program
	files  map[string]string
}

func newGen(root string, seed int64, workload string) *gen {
	// Distinct workloads draw from distinct sequences of the same seed.
	h := sha256.Sum256([]byte(workload))
	mix := int64(h[0]) | int64(h[1])<<8 | int64(h[2])<<16
	rng := rand.New(rand.NewSource(seed*1_000_003 + mix))
	return &gen{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.3, 1, 63),
		root:   root,
		fresh:  map[string]int64{},
		perms:  map[string][]int{},
		oracle: map[string]int64{},
		progs:  map[string]*minipar.Program{},
		files:  map[string]string{},
	}
}

func (g *gen) file(rel string) string {
	if s, ok := g.files[rel]; ok {
		return s
	}
	b, err := os.ReadFile(filepath.Join(g.root, rel))
	if err != nil {
		panic(fmt.Errorf("benchmark input: %w", err))
	}
	g.files[rel] = string(b)
	return string(b)
}

func (g *gen) tenant() string { return fmt.Sprintf("tenant-%02d", g.rng.Intn(tenants)) }

// next returns the class's next never-before-used counter value.
func (g *gen) next(class string) int64 {
	g.fresh[class]++
	return g.fresh[class]
}

// pick returns a value in [0, span) the class has not been given before
// (until span draws have been made).
func (g *gen) pick(class string, span int64) int64 {
	p, ok := g.perms[class]
	if !ok {
		p = g.rng.Perm(int(span))
		g.perms[class] = p
	}
	return int64(p[(g.next(class)-1)%span])
}

// interpret is the independent oracle for minipar sources: the
// sequential source-level interpreter, never the machine.
func (g *gen) interpret(src string, args map[string]int64) int64 {
	p, ok := g.progs[src]
	if !ok {
		var err error
		if p, err = minipar.Parse(src); err != nil {
			panic(fmt.Errorf("generator emitted unparsable minipar: %w\n%s", err, src))
		}
		if err = minipar.Check(p); err != nil {
			panic(fmt.Errorf("generator emitted ill-formed minipar: %w\n%s", err, src))
		}
		g.progs[src] = p
	}
	vals := make([]int64, len(p.Params))
	key := src
	for i, name := range p.Params {
		vals[i] = args[name]
		key += "|" + strconv.FormatInt(vals[i], 10)
	}
	if v, ok := g.oracle[key]; ok {
		return v
	}
	v, err := minipar.Interpret(p, vals)
	if err != nil {
		panic(fmt.Errorf("generator emitted a minipar program its oracle cannot run: %w\n%s", err, src))
	}
	g.oracle[key] = v
	return v
}

func (g *gen) minipar(class, src string, args map[string]int64, autopar bool) request {
	return request{
		Class: class,
		Submit: serve.SubmitRequest{
			Tenant: g.tenant(), Lang: "minipar", Source: src, Args: args, AutoParallelize: autopar,
		},
		Expect: expect{Status: "done", Reg: "result", Val: g.interpret(src, args)},
	}
}

func (g *gen) tpal(class, src string, args map[string]int64, exp expect) request {
	return request{
		Class:  class,
		Submit: serve.SubmitRequest{Tenant: g.tenant(), Lang: "tpal", Source: src, Args: args},
		Expect: exp,
	}
}

func done(reg string, val int64) expect { return expect{Status: "done", Reg: reg, Val: val} }

// hotOrCold draws an argument: with probability coldShare a value no
// earlier request of the class used (a result-cache miss), otherwise a
// Zipf draw from a 64-value pool (a hit once the pool is warm).
func (g *gen) hotOrCold(class string, coldShare float64, lo, coldSpan int64) int64 {
	if coldSpan > 0 && g.rng.Float64() < coldShare {
		return lo + 64 + g.pick(class, coldSpan)
	}
	return lo + int64(g.zipf.Uint64())
}

// build draws n requests and hashes them: first `rounds` rounds of one
// request per class, which is the warm-up (every program seen, the same
// work on every seed, so set-up time repeats), then block after block
// in the classes' weights.
func (g *gen) build(classes []class, rounds, n int) *stream {
	var slots, each []int
	for i, c := range classes {
		each = append(each, i)
		for k := 0; k < c.weight; k++ {
			slots = append(slots, i)
		}
	}
	s := &stream{Reqs: make([]request, 0, n)}
	h := sha256.New()
	s.Warm, s.Block = rounds*len(classes), len(slots)
	for len(s.Reqs) < n {
		order := slots
		if len(s.Reqs) < s.Warm {
			order = each
		}
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ci := range order {
			if len(s.Reqs) == n {
				break
			}
			r := classes[ci].make(g)
			body, err := json.Marshal(r.Submit)
			if err != nil {
				panic(err)
			}
			r.Body = body
			h.Write(body)
			fmt.Fprintf(h, "|%+v\n", r.Expect)
			s.Reqs = append(s.Reqs, r)
		}
	}
	s.SHA = hex.EncodeToString(h.Sum(nil))
	return s
}

// generate builds the named serve-* workload's stream.
func generate(root, workload string, seed int64, n int) *stream {
	g := newGen(root, seed, workload)
	rounds := serveWorkloads[workload].WarmupRounds
	switch workload {
	case "serve-mixed":
		return g.build(mixedClasses(g), rounds, n)
	case "serve-exec":
		return g.build(execClasses(), rounds, n)
	case "serve-admit":
		return g.build(admitClasses(), rounds, n)
	case "serve-hot":
		return g.build(hotClasses(g), rounds, n)
	}
	panic("no stream for workload " + workload)
}

// ---- serve-mixed ----

const mpDir = "internal/minipar/testdata/"

// mixedClasses is the realistic traffic: every front end, every sample
// program, rejected and budget-busting submissions, about half of the
// admitted jobs result-cache hits. Of 100 requests 28 are light (TPAL
// corpus and examples, rejections: 1 to 3 ms of front end), 3 the
// blocked autopar sample, 38 sumsquares.mp (about 12 ms of minipar
// compile), then fib.mp 5, budget-busting runs 2, autopar rewrites 12
// (about 30 ms), double nests 9 (about 120 ms) and the triple nest 3
// (about 450 ms): sumsquares.mp covers ranks 31% to 69%, so the median
// sits in the middle of one class rather than on a boundary.
func mixedClasses(g *gen) []class {
	mp := func(name, file string, weight int, coldShare float64, lo, coldSpan int64, autopar bool) class {
		src := g.file(file)
		return class{name, weight, func(g *gen) request {
			return g.minipar(name, src, map[string]int64{"n": g.hotOrCold(name, coldShare, lo, coldSpan)}, autopar)
		}}
	}
	reject := func(name, file, code string, weight int) class {
		src := g.file(file)
		return class{name, weight, func(g *gen) request {
			return g.tpal(name, src, nil, expect{Status: "rejected", Code: code})
		}}
	}
	sumsq := g.file(mpDir + "sumsquares.mp")
	prodpow := g.file(mpDir + "prod-pow.mp")
	return []class{
		{"prod", 7, func(g *gen) request {
			a, b := g.hotOrCold("prod", 0.6, 16, 4000), int64(3)
			return g.tpal("prod", programs.ProdSource, map[string]int64{"a": a, "b": b}, done("c", a*b))
		}},
		{"pow", 5, func(g *gen) request {
			d, e := int64(3), g.hotOrCold("pow", 0.6, 4, 400)
			return g.tpal("pow", programs.PowSource, map[string]int64{"d": d, "e": e}, done("f", programs.PowExpected(d, e)))
		}},
		{"fib", 4, func(g *gen) request {
			n := 2 + int64(g.zipf.Uint64())%14
			return g.tpal("fib", programs.FibSource, map[string]int64{"n": n}, done("f", programs.FibExpected(n)))
		}},
		mp("sumsquares.mp", mpDir+"sumsquares.mp", 38, 0.6, 8, 3000, false),
		{"fib.mp", 5, func(g *gen) request {
			return g.minipar("fib.mp", g.file(mpDir+"fib.mp"), map[string]int64{"n": 2 + int64(g.zipf.Uint64())%12}, false)
		}},
		mp("mixed.mp", mpDir+"mixed.mp", 5, 0.5, 8, 400, false),
		{"prod-pow.mp", 4, func(g *gen) request {
			z := int64(g.zipf.Uint64())
			return g.minipar("prod-pow.mp", prodpow, map[string]int64{"d": 2 + z%8, "e": 2 + z/8}, false)
		}},
		{"triple-nest.mp", 3, func(g *gen) request {
			return g.minipar("triple-nest.mp", g.file(mpDir+"triple-nest.mp"), map[string]int64{"n": 2 + int64(g.zipf.Uint64())%8}, false)
		}},
		mp("autopar-map", "examples/autopar/map.mp", 6, 0.5, 8, 2000, true),
		mp("autopar-reduce", "examples/autopar/reduce.mp", 6, 0.5, 8, 2000, true),
		mp("autopar-carried", "examples/autopar/carried.mp", 3, 0.5, 8, 2000, true),
		{"demo.tpal", 4, func(g *gen) request {
			return g.tpal("demo.tpal", g.file("examples/opt/demo.tpal"), nil, done("result", 50))
		}},
		{"racefree.tpal", 3, func(g *gen) request {
			return g.tpal("racefree.tpal", g.file("examples/races/racefree.tpal"), nil, expect{Status: "done"})
		}},
		reject("racy.tpal", "examples/races/racy.tpal", "TP060", 2),
		reject("divergent.tpal", "examples/trips/divergent.tpal", "TP090", 2),
		reject("bounded.tpal", "examples/trips/bounded.tpal", "TP050", 1),
		{"budget", 2, func(g *gen) request {
			// An argument no other class uses, so the result cache can
			// never answer in place of the budget check.
			r := g.minipar("budget", sumsq, map[string]int64{"n": 50_000 + g.next("budget")}, false)
			r.Submit.Fuel = 1000
			r.Expect = expect{Status: "budget_exceeded"}
			return r
		}},
	}
}

// ---- serve-exec ----

// plusReduceMP is the plus-reduce-array kernel as a minipar reduction
// loop, the machine-level analogue of the native benchmark.
const plusReduceMP = `params n
var total = 0
parfor i in 0 .. n reduce(total, +) {
    total = total + i
}
return total
`

// printedTPAL compiles a minipar source once, at generation time, and
// returns the assembly text: serve-exec submits that text, so the
// daemon's front end is asm.Parse alone.
func printedTPAL(src string) string {
	p, err := minipar.Compile(minipar.MustParse(src))
	if err != nil {
		panic(err)
	}
	return p.String()
}

// execClasses: three programs, a fresh argument every request, sized so
// the machine run dominates turnaround.
func execClasses() []class {
	var plusText, sumsqText string
	lazy := func(g *gen) {
		if plusText == "" {
			plusText = printedTPAL(plusReduceMP)
			sumsqText = printedTPAL(g.file(mpDir + "sumsquares.mp"))
		}
	}
	return []class{
		{"plus-reduce-array", 7, func(g *gen) request {
			lazy(g)
			n := execLo + g.pick("plus", execSpan)
			return g.tpal("plus-reduce-array", plusText, map[string]int64{"n": n}, done("result", n*(n-1)/2))
		}},
		{"sumsquares", 7, func(g *gen) request {
			lazy(g)
			n := execLo + g.pick("sumsq", execSpan)
			return g.tpal("sumsquares", sumsqText, map[string]int64{"n": n}, done("result", (n-1)*n*(2*n-1)/6))
		}},
		{"pow", 6, func(g *gen) request {
			// d·e inner iterations; every (d, e) pair is used once.
			k := g.pick("pow", 40*85)
			d, e := 80+k%40, 125+k/40
			return g.tpal("pow", programs.PowSource, map[string]int64{"d": d, "e": e}, done("f", programs.PowExpected(d, e)))
		}},
	}
}

// ---- serve-admit ----

// admitClasses: every request a program the daemon has never seen, run
// at tiny arguments, so admission (compile, analyze, optimize) is the
// whole job. Constants are drawn fresh; the templates fix the shape.
// Of 50 requests 39 are single loops or one recursive function (about
// 30 ms of admission each), 3 double nests (about 250 ms), 1 a triple
// nest (about 700 ms), 4 TPAL variants and 3 rejections, so the median
// sits inside the 30 ms group and the 95th percentile inside the double
// nests.
func admitClasses() []class {
	c := func(g *gen, lo, hi int64) int64 { return lo + g.rng.Int63n(hi-lo) }
	// Every template folds the request's serial number into one of its
	// constants, so two requests of a stream can never be the same
	// program even when the other draws collide.
	serial := func(g *gen, class string) int64 { return 1_000 + g.next(class) }
	return []class{
		{"nest1", 27, func(g *gen) request {
			src := fmt.Sprintf("params n\nvar total = %d\nparfor i in 0 .. n reduce(total, +) {\n    var t = i * %d + %d\n    total = total + t\n}\nreturn total\n",
				serial(g, "nest1"), c(g, 2, 99), c(g, 0, 999))
			return g.minipar("nest1", src, map[string]int64{"n": c(g, 4, 12)}, false)
		}},
		{"nest2", 3, func(g *gen) request {
			src := fmt.Sprintf("params n\nvar total = %d\nparfor i in 0 .. n reduce(total, +) {\n    parfor j in 0 .. n reduce(total, +) {\n        total = total + (i * %d + j + %d) %% %d\n    }\n}\nreturn total\n",
				serial(g, "nest2"), c(g, 2, 99), c(g, 0, 999), c(g, 3, 17))
			return g.minipar("nest2", src, map[string]int64{"n": c(g, 3, 7)}, false)
		}},
		{"nest3", 1, func(g *gen) request {
			src := fmt.Sprintf("params n\nvar total = %d\nparfor i in 0 .. n reduce(total, +) {\n    parfor j in 0 .. n reduce(total, +) {\n        parfor k in 0 .. n reduce(total, +) {\n            total = total + (i * %d + j + k + %d) %% %d\n        }\n    }\n}\nreturn total\n",
				serial(g, "nest3"), c(g, 2, 99), c(g, 0, 999), c(g, 3, 17))
			return g.minipar("nest3", src, map[string]int64{"n": c(g, 2, 5)}, false)
		}},
		{"reduce-mul", 6, func(g *gen) request {
			src := fmt.Sprintf("params n\nvar p = %d\nparfor i in 0 .. n reduce(p, *) {\n    p = p * %d\n}\nreturn p\n",
				serial(g, "reduce-mul"), c(g, 2, 9))
			return g.minipar("reduce-mul", src, map[string]int64{"n": c(g, 4, 12)}, false)
		}},
		{"parcall", 5, func(g *gen) request {
			src := fmt.Sprintf("params n\n\nfunc f(m) {\n  if m < 2 { return m + %d }\n  parcall a, b = f(m - 1), f(m - 2)\n  return a + b + %d\n}\n\nvar r = 0\nr = call f(n)\nreturn r\n",
				serial(g, "parcall"), c(g, 0, 99))
			return g.minipar("parcall", src, map[string]int64{"n": c(g, 4, 9)}, false)
		}},
		{"tpal-demo", 3, func(g *gen) request {
			a, b := serial(g, "tpal-demo"), c(g, 0, 999)
			src := fmt.Sprintf("program demo entry main\n\nblock main [.] {\n  a := %d\n  b := %d\n  c := a + b\n  d := c * 10\n  t := a < 1\n  if-jump t, cold\n  jump out\n}\n\nblock cold [.] {\n  d := 99\n  jump out\n}\n\nblock out [.] {\n  result := d\n  halt\n}\n", a, b)
			return g.tpal("tpal-demo", src, nil, done("result", (a+b)*10))
		}},
		{"tpal-prod", 2, func(g *gen) request {
			// prod with a fresh initial accumulator k: c = k + a·b.
			k := serial(g, "tpal-prod")
			src := strings.Replace(programs.ProdSource, "  r := 0\n  jump loop\n", fmt.Sprintf("  r := %d\n  jump loop\n", k), 1)
			a, b := c(g, 4, 40), c(g, 1, 9)
			return g.tpal("tpal-prod", src, map[string]int64{"a": a, "b": b}, done("c", k+a*b))
		}},
		{"racy", 2, func(g *gen) request {
			src := fmt.Sprintf("program racy entry main\n\nblock main [.] {\n  sp := snew\n  salloc sp, 2\n  jr := jralloc after\n  fork jr, body\n  mem[sp + 0] := %d\n  join jr\n}\n\nblock body [.] {\n  mem[sp + 0] := %d\n  join jr\n}\n\nblock after [jtppt assoc-comm; {}; comb] {\n  halt\n}\n\nblock comb [.] {\n  join jr\n}\n",
				serial(g, "racy"), c(g, 0, 999))
			return g.tpal("racy", src, nil, expect{Status: "rejected", Code: "TP060"})
		}},
		{"divergent", 1, func(g *gen) request {
			src := fmt.Sprintf("program divergent entry main\n\nblock main [.] {\n  n := %d\n  x := 0\n  jump loop\n}\n\nblock loop [.] {\n  t := n == 0\n  if-jump t, done\n  x := x + 1\n  jump loop\n}\n\nblock done [.] {\n  halt\n}\n",
				serial(g, "divergent"))
			return g.tpal("divergent", src, nil, expect{Status: "rejected", Code: "TP090"})
		}},
	}
}

// ---- serve-hot ----

// hotClasses: two programs, identical bytes every time but for the
// tenant. 75/25 rather than 50/50 so the median sits well inside the
// TPAL class and the 95th percentile well inside the minipar class; at
// 50/50 the median is the boundary between the two and does not repeat.
func hotClasses(g *gen) []class {
	sumsq := g.file(mpDir + "sumsquares.mp")
	return []class{
		{"prod", 3, func(g *gen) request {
			return g.tpal("prod", programs.ProdSource, map[string]int64{"a": 20, "b": 3}, done("c", 60))
		}},
		{"sumsquares.mp", 1, func(g *gen) request {
			return g.minipar("sumsquares.mp", sumsq, map[string]int64{"n": 12}, false)
		}},
	}
}
