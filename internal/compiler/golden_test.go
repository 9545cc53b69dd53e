package compiler_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/platform"
)

// compiledGoldens are the SHA-256s (programHash) of every compiled
// BioPerf program: each program, original and (where it has one)
// load-transformed, under compiler.Default() and each distinct platform
// EvalOptions, keyed "program/variant/intregs-fpregs". They pin the
// compiler's output byte for byte, so a front-end or back-end change
// that claims to move no code is checked directly rather than through
// the cycles and traces the code produces.
var compiledGoldens = map[string]string{
	"blast/orig/0-0":           "c0c822e81b2d739957853d6d3b38a840e8ba2f476bba7baf86c6ca6a0af75c4f",
	"blast/orig/48-48":         "c698132118a3393f51119407a1827bc34a93c033d56c233a470fa616e8d7527c",
	"blast/orig/8-8":           "d704ee856ac74344726aab828ecde885fbec1d3493a9c1e343c3c486b2a0718d",
	"clustalw/orig/0-0":        "c93c209e4a55b6989a4e85c9920ac4e8cd450dfd18c2bc9d60287beb9f4a0b55",
	"clustalw/orig/48-48":      "13051c11332f4a53b64b8d9403a9fcde98ef6811a5d2669f1724c94547aeb4f0",
	"clustalw/orig/8-8":        "197e04c1085de0538ac291286bf795d19c3df76315c6a916307a01d1853485c4",
	"clustalw/trans/0-0":       "05a4a0ce13d24a69f2591136b61f5a9cb0ed4bf44cfac5d4a11b4438f3a467ea",
	"clustalw/trans/48-48":     "59780ff819d4e8d7435bd0ee57cacc9be6772268650cf752af1258bc1eba071b",
	"clustalw/trans/8-8":       "2332262397cccabd19b53bc854998eed3c6405a66ab7d0d9bc1f0539e8ca378c",
	"dnapenny/orig/0-0":        "56b5d676af2516f1ea8465cbfeb4dd6738c52be7a0ff74316ad6a613f0e142ce",
	"dnapenny/orig/48-48":      "df23391bfae52137b3360edb2b9d3d2095bb462f6bdcecb757464763e5680de3",
	"dnapenny/orig/8-8":        "e91184446c7fcbc43a8dd98cbab7670c0d5c4799cd6f5eaeed7e19ccdae44746",
	"dnapenny/trans/0-0":       "0092a795dea0dcaf63cd5662edbe46b2fac204db8582d2a9ab13e03fc393623d",
	"dnapenny/trans/48-48":     "727531a40f6ccf4b4316f7a9072b1b429929a617789656ac4fa325f211d95582",
	"dnapenny/trans/8-8":       "2f579555d56f0c30eebe1276d694afbe3ab018a3ca87490d95d2877af751cad3",
	"fasta/orig/0-0":           "1dcdb5bfc080d191d46906f88063827da1d0bc3cc4a8fd09d2ca6715cf224795",
	"fasta/orig/48-48":         "430abf4ff8ee21011a9c269445266a74435f4e0a9391980d57a33bd19015c83e",
	"fasta/orig/8-8":           "7e5f9d54206a29780a5b65657346f99b05bd62a026e9cceca296acf87e54eb8d",
	"hmmcalibrate/orig/0-0":    "8cc77683eb61ed421a80136a8a02a4e6a005aeda25610667466965ba708232c7",
	"hmmcalibrate/orig/48-48":  "e83d5cedf4a14d16813eca5845bf1eed8d5de23f854ffbe002334ab2810eddcf",
	"hmmcalibrate/orig/8-8":    "40c3088b7d72ddea0235efcedbff36d9b4368d266981c885e3e0ff35d2eb8e89",
	"hmmcalibrate/trans/0-0":   "dfa4b6ac38b83ed817e4169aa34c1c39982a6d5c3333e77b990d3a20c9603c89",
	"hmmcalibrate/trans/48-48": "ae2fae0cea3d140643c241d919ab10ba4eb0264574948561e2bb3b4b99c883f2",
	"hmmcalibrate/trans/8-8":   "cb707069040592e86c6be2c2c4968266fd2d21dfdda32ef5ca30a29569b4c394",
	"hmmpfam/orig/0-0":         "51e78eaa808a561e4c97925ab429b27ea57f98e3838d0d4d349b4d4aa714cd91",
	"hmmpfam/orig/48-48":       "33a00bb01d4ad9ef6296fbf11eaf78bbc54d04b507b9ed7db15ba42b3994ca35",
	"hmmpfam/orig/8-8":         "04b8401793c21bb5c84b7976a87dcec83ceaac1bba1eed8ccd74dc7b7e8bc85e",
	"hmmpfam/trans/0-0":        "ff37d8a7e82cc9fd2e0f7fd520f483e2fe2ad21b3ba757d15f7629ded483c55b",
	"hmmpfam/trans/48-48":      "81505877207e9de0f9e994719ce316d9fa573ecd7f3afc6af2c912dc7f9e9499",
	"hmmpfam/trans/8-8":        "8afd8a01bf2a2d742b344b506c2bf4f1671c76f601fa806638ccf2976b15e4fc",
	"hmmsearch/orig/0-0":       "4cfcbcad33c6e61ea73cdacf666fd4f6f55ac2594e152eda4092fcc0a4946767",
	"hmmsearch/orig/48-48":     "2d6a88bb52f39d0759916c20d0f56335f09bc99986ada18c80ec9502586848dd",
	"hmmsearch/orig/8-8":       "fca0ad1d7191ed9668b9748a678e0cd5157de6b813be715039242c002767e0a7",
	"hmmsearch/trans/0-0":      "303369ce07fcccbe7727f7d01c3331c884e6f38e66c14a372fc5c7fa9c922fb2",
	"hmmsearch/trans/48-48":    "837b8652ad8b9f9815c911d40fcd5a6cc6e0def03c036fa78d52a3f4aec13995",
	"hmmsearch/trans/8-8":      "b87baf7694d5f649487d85ffa61c41396e7b73147d5bf16addf41b32fa094e6b",
	"predator/orig/0-0":        "f4292fa701d23af7c96c9343cd9d105b9bce482b446f8ac8cddf3ef19a85bee4",
	"predator/orig/48-48":      "63ea4f49a14c697aa17d67e547eebd95c7c05bfcc60ef8cc207971d6e4f6b667",
	"predator/orig/8-8":        "466d3c4ade011cbde02118409b2ce538837a019dfaeb82a039f492169758fc38",
	"predator/trans/0-0":       "24c5d481f00ac39599fde072546463a4c176fb21089f236e9a80d7d7b1399fc1",
	"predator/trans/48-48":     "c9fe09c40d348f88af2318424dac2b1c4b13a948885e737827519c899c429d3a",
	"predator/trans/8-8":       "dd8ab504a52511cabfeeaaf9f710d21c1075e26fe7b9e86782bacb84f675744e",
	"promlk/orig/0-0":          "f0811916fb0c200d8dbefeabb256c3bfa57836f21f489dc354cc3280fc8ea716",
	"promlk/orig/48-48":        "474f4b4ad660721b9ebe63637bc8fcfefe3e2d153b698dbf6916b4ba2ee27fb6",
	"promlk/orig/8-8":          "e7e67abc9a4ce03cc79e49f7ac64765524cdae6d0d1ed83123838d1b82efc8d6",
}

// compileVariants lists every compile the goldens cover, in a fixed
// order: the nine programs, original and load-transformed, under the
// distinct compiler options of compiler.Default() and the platforms.
func compileVariants() (keys []string, progs []*bio.Program, trans []bool, opts []compiler.Options) {
	optsSet := []compiler.Options{compiler.Default()}
	for _, pl := range platform.All() {
		o := pl.EvalOptions()
		dup := false
		for _, have := range optsSet {
			dup = dup || have == o
		}
		if !dup {
			optsSet = append(optsSet, o)
		}
	}
	for _, p := range bio.All() {
		for _, tr := range []bool{false, true} {
			if tr && !p.Transformable {
				continue // compiles the original source
			}
			v := "orig"
			if tr {
				v = "trans"
			}
			for _, o := range optsSet {
				keys = append(keys, fmt.Sprintf("%s/%s/%d-%d", p.Name, v, o.AllocIntRegs, o.AllocFPRegs))
				progs = append(progs, p)
				trans = append(trans, tr)
				opts = append(opts, o)
			}
		}
	}
	return keys, progs, trans, opts
}

// programHash is the SHA-256 of everything a compile produces: the
// name, entry, data end, every instruction field (source position
// included), the file and function tables, the symbols and the static
// data initializers, little-endian and length-prefixed.
func programHash(p *isa.Program) string {
	h := sha256.New()
	u := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	s := func(v string) { u(uint64(len(v))); h.Write([]byte(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	s(p.Name)
	u(uint64(p.Entry))
	u(p.DataEnd)
	u(uint64(len(p.Insts)))
	for _, in := range p.Insts {
		u(uint64(in.Op))
		u(uint64(in.Rd))
		u(uint64(in.Ra))
		u(uint64(in.Rb))
		b(in.HasImm)
		u(uint64(in.Imm))
		u(uint64(in.Target))
		u(uint64(in.Pos.File))
		u(uint64(in.Pos.Func))
		u(uint64(in.Pos.Line))
	}
	u(uint64(len(p.Files)))
	for _, f := range p.Files {
		s(f)
	}
	u(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		s(f.Name)
		u(uint64(f.Entry))
		u(uint64(f.End))
	}
	u(uint64(len(p.Symbols)))
	for _, sym := range p.Symbols {
		s(sym.Name)
		u(sym.Addr)
		u(sym.Size)
		u(uint64(sym.Elem))
		b(sym.IsFP)
	}
	u(uint64(len(p.Init)))
	for _, d := range p.Init {
		u(d.Addr)
		u(uint64(len(d.Bytes)))
		h.Write(d.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompiledProgramGoldens compiles every variant and compares its
// programHash to the pinned one. On a mismatch it prints the whole
// table, so an intended code change can re-pin it in one edit.
func TestCompiledProgramGoldens(t *testing.T) {
	keys, progs, trans, opts := compileVariants()
	got := make(map[string]string, len(keys))
	for i, k := range keys {
		prog, err := progs[i].Compile(trans[i], opts[i])
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		got[k] = programHash(prog)
	}
	bad := false
	for _, k := range keys {
		if want := compiledGoldens[k]; got[k] != want {
			t.Errorf("%s: program SHA-256 %s, want %s", k, got[k], want)
			bad = true
		}
	}
	if len(compiledGoldens) != len(keys) {
		t.Errorf("%d goldens pinned, %d variants compiled", len(compiledGoldens), len(keys))
		bad = true
	}
	if bad {
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("current table:\n%s", b.String())
	}
}
