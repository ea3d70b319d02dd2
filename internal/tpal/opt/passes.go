package opt

import (
	"fmt"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// passThread is jump threading: a direct jump, if-jump, or fork whose
// target is a trivial block — no instructions, no annotation, and an
// unconditional direct jump terminator — is retargeted to wherever the
// trivial block goes, following chains. The trivial blocks themselves
// are left in place (they may still be referenced, or address-taken);
// the unreachable pass collects the orphans.
func passThread(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	trivialNext := func(l tpal.Label) (tpal.Label, bool) {
		b := p.Block(l)
		if b == nil || len(b.Instrs) != 0 || b.Ann.Kind != tpal.AnnNone ||
			b.Term.Kind != tpal.TJump || b.Term.Val.Kind != tpal.OperLabel {
			return "", false
		}
		return b.Term.Val.Label, true
	}
	resolve := func(l tpal.Label) tpal.Label {
		seen := map[tpal.Label]bool{l: true}
		for {
			next, ok := trivialNext(l)
			if !ok || seen[next] {
				return l
			}
			seen[next] = true
			l = next
		}
	}

	count := 0
	retarget := func(o *tpal.Operand) {
		if o.Kind != tpal.OperLabel {
			return
		}
		if to := resolve(o.Label); to != o.Label {
			o.Label = to
			count++
		}
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Kind {
			case tpal.IIfJump, tpal.IFork:
				retarget(&b.Instrs[i].Val)
			}
		}
		if b.Term.Kind == tpal.TJump {
			retarget(&b.Term.Val)
		}
	}
	return p, count, nil
}

// passUnreachable removes blocks that no surviving block references.
// The keep set is the transitive reference closure from the entry
// block over every kind of label reference — control transfers, label
// value operands (address-taken), jralloc continuations, prppt
// handlers, jtppt combiners — so the shrunken program is structurally
// valid by construction: nothing kept can name anything dropped.
func passUnreachable(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	refs := func(b *tpal.Block) []tpal.Label {
		var out []tpal.Label
		switch b.Ann.Kind {
		case tpal.AnnPrppt:
			out = append(out, b.Ann.Handler)
		case tpal.AnnJtppt:
			out = append(out, b.Ann.Comb)
		}
		for _, in := range b.Instrs {
			if in.Val.Kind == tpal.OperLabel {
				out = append(out, in.Val.Label)
			}
			if in.Kind == tpal.IJrAlloc {
				out = append(out, in.Lbl)
			}
		}
		if b.Term.Val.Kind == tpal.OperLabel {
			out = append(out, b.Term.Val.Label)
		}
		return out
	}

	keep := map[tpal.Label]bool{p.Entry: true}
	work := []tpal.Label{p.Entry}
	for len(work) > 0 {
		l := work[0]
		work = work[1:]
		b := p.Block(l)
		if b == nil {
			continue
		}
		for _, r := range refs(b) {
			if !keep[r] && p.Block(r) != nil {
				keep[r] = true
				work = append(work, r)
			}
		}
	}
	if len(keep) == len(p.Blocks) {
		return p, 0, nil
	}
	blocks := make([]*tpal.Block, 0, len(keep))
	for _, b := range p.Blocks {
		if keep[b.Label] {
			blocks = append(blocks, b)
		}
	}
	dropped := len(p.Blocks) - len(blocks)
	return tpal.MustProgram(p.Name, p.Entry, blocks), dropped, nil
}

// passDCE is dead-code elimination: a backward register-liveness
// fixpoint over the conservative CFG finds move instructions whose
// destination is never read before being overwritten, and deletes
// them. Only moves are candidates — they are the one instruction kind
// that can never fault, so deleting a dead one can never erase an
// observable fault. Registers in Options.LiveOut (all registers when
// nil, matching the machine's whole-file result) are live at every
// halt; join terminators conservatively keep every jtppt
// continuation's needs plus the ΔR sources alive.
func passDCE(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	lv := newLiveness(p, c.opts.LiveOut)
	lv.solve()

	count := 0
	for _, b := range p.Blocks {
		live := lv.liveAtEnd(b)
		// Walk backward, deleting dead moves as they are discovered.
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Kind == tpal.IMove && !live.all && !live.m[in.Dst] {
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				count++
				continue
			}
			lv.stepBack(live, in)
		}
	}
	return p, count, nil
}

// passPrppt is redundant-prppt elimination. For each promotion-ready
// program point, in program order, it tentatively strips the
// annotation and re-runs the full analysis; the removal sticks only
// when the candidate is provably safe:
//
//   - no new diagnostics of any code (which keeps the race
//     certification and rejects removals whose lost handler path was
//     load-bearing for the may-analysis);
//   - the promotion-latency grade does not worsen — in particular it
//     stays finite (or stack-bounded, matching the input), so a
//     single-loop prppt whose removal would unbound the gap is always
//     kept (TP081);
//   - the new latency bound stays within the gap budget (TP080
//     otherwise) — the rule that makes an outer nested-loop prppt
//     removable: the inner loop's handler chain still attempts the
//     outer promotion first, and the outer cycle still crosses the
//     inner prppt head, only with a longer (budgeted) event-free path.
func passPrppt(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	budget := c.gapBudget()
	cur := c.analyzeQuick(p)
	count := 0
	var notes []analysis.Diag
	for _, l := range p.Prppts() {
		b := p.Block(l)
		saved := b.Ann
		b.Ann = tpal.Annotation{}
		cand := c.analyzeQuick(p)

		var code analysis.Code
		var why string
		diagErr := certifyDiags(cur.Diags, cand.Diags)
		switch {
		case diagErr != nil:
			code, why = analysis.CodeOptPrpptGrade,
				fmt.Sprintf("removal would surface new diagnostics: %v", diagErr)
		case latencyRank(cand.Latency.Class) > latencyRank(cur.Latency.Class),
			cand.Latency.Class == analysis.LatencyUnbounded:
			code, why = analysis.CodeOptPrpptGrade,
				fmt.Sprintf("removal would worsen the latency grade: %s -> %s", cur.Latency, cand.Latency)
		case cand.Latency.Bound > budget:
			code, why = analysis.CodeOptPrpptBudget,
				fmt.Sprintf("removal would raise the latency bound to %d, past the gap budget %d", cand.Latency.Bound, budget)
		case certifyCost("work", cur.Work, cand.Work, c.grid) != nil || certifyCost("span", cur.Span, cand.Span, c.grid) != nil:
			code, why = analysis.CodeOptPrpptGrade, "removal would grow the work or span bound"
		}
		if code != "" {
			b.Ann = saved
			notes = append(notes, analysis.Diag{
				Severity: analysis.Warning, Code: code, Block: l, Instr: tpal.IssueBlock, Msg: why,
			})
			continue
		}
		cur = cand
		count++
	}
	return p, count, notes
}
