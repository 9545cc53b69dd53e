package ir

// Global load hoisting — the transformation the paper's Figure 5
// describes and most compilers cannot apply. In a triangle
//
//	B:  ...; branch c ? T : J
//	T:  ... store ...; jump J
//	J:  loads; ...
//
// block B dominates J and every path from B reaches J, so the leading
// loads of J may be hoisted into B (executing them a branch earlier
// and hiding their latency behind the branch resolution) — *provided*
// they can be disambiguated against the stores in T. With the default
// conservative analysis a store through a pointer parameter blocks
// every hoist, exactly as the paper observes of production compilers
// (Section 2.2.2); with RestrictParams (the C99 `restrict` experiment
// from the paper's Itanium discussion) pointer parameters are assumed
// pairwise non-overlapping and the hoist goes through.

// maxHoistPerBlock bounds code motion per join block.
const maxHoistPerBlock = 8

// noAliasR is NoAlias extended with the restrict-parameter assumption.
func noAliasR(a, b Region, restrict bool) bool {
	if NoAlias(a, b) {
		return true
	}
	if !restrict {
		return false
	}
	// Under restrict, distinct pointer parameters never overlap, and
	// a pointer parameter never overlaps a named object.
	switch {
	case a.Kind == RegionParam && b.Kind == RegionParam:
		return a.ID != b.ID
	case a.Kind == RegionParam && (b.Kind == RegionGlobal || b.Kind == RegionStack):
		return true
	case b.Kind == RegionParam && (a.Kind == RegionGlobal || a.Kind == RegionStack):
		return true
	}
	return false
}

// mayAliasInstrR reports whether two memory instructions might touch
// the same bytes. It applies the paper's compiler model: distinct
// named objects never alias; pointer parameters alias everything
// unless restrict is set; the same base value with non-overlapping
// constant offsets is disjoint.
func mayAliasInstrR(a, b *Instr, restrict bool) bool {
	if noAliasR(a.Region, b.Region, restrict) {
		return false
	}
	if a.A == b.A && a.A != NoValue {
		aw, bw := int64(a.Width), int64(b.Width)
		if a.Off+aw <= b.Off || b.Off+bw <= a.Off {
			return false
		}
	}
	return true
}

// globalHoistLoads applies triangle load hoisting across the whole
// function, returning how many instructions moved.
func globalHoistLoads(f *Func, restrict bool) int {
	preds := make(map[int32][]int32)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	moved := 0
	for _, b := range f.Blocks {
		if b.Term.Op != OpBranch {
			continue
		}
		t := f.Blocks[b.Term.True]
		j := f.Blocks[b.Term.False]
		// Then-only triangle: B -> {T, J}, T -> J, J has exactly the
		// preds {B, T}.
		if t.ID == j.ID || t.Term.Op != OpJump || t.Term.True != j.ID {
			continue
		}
		if len(preds[t.ID]) != 1 {
			continue
		}
		pj := preds[j.ID]
		if len(pj) != 2 || !containsBoth(pj, b.ID, t.ID) {
			continue
		}

		// Values defined or used in T: hoisted instructions must not
		// interact with them.
		tDefs := make(map[Value]bool)
		tUses := make(map[Value]bool)
		var buf []Value
		scan := func(in *Instr) {
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				tUses[v] = true
			}
			if in.Dst != NoValue {
				tDefs[in.Dst] = true
			}
		}
		for i := range t.Instrs {
			scan(&t.Instrs[i])
		}
		scan(&t.Term)
		var tStores []*Instr
		for i := range t.Instrs {
			if t.Instrs[i].Op == OpStore {
				tStores = append(tStores, &t.Instrs[i])
			}
		}

		cond := b.Term.A
		n := 0
		for n < len(j.Instrs) && n < maxHoistPerBlock {
			in := &j.Instrs[n]
			ok := (in.IsPure() || in.Op == OpLoad) && in.Dst != NoValue
			if ok && in.Op == OpCMov {
				ok = false // reads its own dst; not worth the analysis
			}
			if ok {
				buf = in.Uses(buf[:0])
				for _, v := range buf {
					if tDefs[v] {
						ok = false
					}
				}
			}
			if ok && (tDefs[in.Dst] || tUses[in.Dst] || in.Dst == cond) {
				ok = false
			}
			if ok && in.Op == OpLoad {
				for _, st := range tStores {
					if mayAliasInstrR(st, in, restrict) {
						ok = false
						break
					}
				}
			}
			if !ok {
				break
			}
			n++
		}
		if n == 0 {
			continue
		}
		b.Instrs = append(b.Instrs, j.Instrs[:n]...)
		j.Instrs = append(j.Instrs[:0], j.Instrs[n:]...)
		moved += n
	}
	return moved
}

func containsBoth(xs []int32, a, b int32) bool {
	return (xs[0] == a && xs[1] == b) || (xs[0] == b && xs[1] == a)
}
