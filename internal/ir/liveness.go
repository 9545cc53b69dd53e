package ir

// Bitset is a dense bitset over Value ids, shared by the liveness
// analysis here and the register allocator in codegen.
type Bitset []uint64

// NewBitset returns an empty set sized for n values.
func NewBitset(n int32) Bitset { return make(Bitset, (n+63)/64) }

// Has reports membership.
func (s Bitset) Has(v Value) bool { return s[v>>6]&(1<<(uint(v)&63)) != 0 }

// Add inserts v, reporting whether it was absent.
func (s Bitset) Add(v Value) bool {
	w := &s[v>>6]
	m := uint64(1) << (uint(v) & 63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// Del removes v.
func (s Bitset) Del(v Value) { s[v>>6] &^= 1 << (uint(v) & 63) }

// OrInto unions o into s, reporting change.
func (s Bitset) OrInto(o Bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s Bitset) Clone() Bitset {
	c := make(Bitset, len(s))
	copy(c, s)
	return c
}

// Liveness computes per-block live-in/live-out sets with the standard
// backward iterative dataflow. CMov destinations count as uses (the
// old value flows through).
func Liveness(f *Func) (liveIn, liveOut []Bitset) {
	n := f.NumVals
	nb := len(f.Blocks)
	liveIn = make([]Bitset, nb)
	liveOut = make([]Bitset, nb)
	use := make([]Bitset, nb)
	def := make([]Bitset, nb)
	var buf []Value
	for i, b := range f.Blocks {
		liveIn[i] = NewBitset(n)
		liveOut[i] = NewBitset(n)
		use[i] = NewBitset(n)
		def[i] = NewBitset(n)
		scan := func(in *Instr) {
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				if !def[i].Has(v) {
					use[i].Add(v)
				}
			}
			if in.Dst != NoValue {
				def[i].Add(in.Dst)
			}
		}
		for j := range b.Instrs {
			scan(&b.Instrs[j])
		}
		scan(&b.Term)
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Succs() {
				if liveOut[i].OrInto(liveIn[s]) {
					changed = true
				}
			}
			tmp := liveOut[i].Clone()
			for w := range tmp {
				tmp[w] = use[i][w] | (tmp[w] &^ def[i][w])
			}
			for w := range tmp {
				if tmp[w] != liveIn[i][w] {
					liveIn[i][w] = tmp[w]
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}

// deadDefElim removes pure instructions whose destination is not live
// immediately after them (e.g. the zero-initialization of a local
// that is always reassigned before use). It iterates until stable.
func deadDefElim(f *Func) {
	for {
		_, liveOut := Liveness(f)
		removed := false
		var buf []Value
		for bi, b := range f.Blocks {
			live := liveOut[bi].Clone()
			// Walk backward, removing dead pure defs.
			kept := make([]bool, len(b.Instrs))
			touch := func(in *Instr) {
				if in.Dst != NoValue {
					live.Del(in.Dst)
				}
				buf = in.Uses(buf[:0])
				for _, v := range buf {
					live.Add(v)
				}
			}
			touch(&b.Term)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				if in.Dst != NoValue && !in.HasSideEffects() && !live.Has(in.Dst) {
					kept[i] = false
					removed = true
					continue
				}
				kept[i] = true
				touch(in)
			}
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if kept[i] {
					out = append(out, b.Instrs[i])
				}
			}
			b.Instrs = out
		}
		if !removed {
			return
		}
	}
}
