package lint

import (
	"go/types"

	"dcqcn/internal/lint/analysis"
)

// Acctfield protects the model's conservation accounting. Fields whose
// declaration carries an //acct: comment (shared-buffer occupancy,
// per-priority ingress bytes, link loss counters, NIC receive backlog)
// feed the invariant auditor's byte-conservation equations; a write
// from outside the owning type's methods would let some other layer
// "fix up" the books and mask a real leak. The analyzer allows writes
// only inside methods declared on the owning named type (closures
// within such methods count as the method). It judges the //acct:
// writes the call graph records (callgraph.AcctWrite). The check is
// per-package: //acct: tags are comments, which export data does not
// carry, so a tagged field must stay unexported to be fully protected.
var Acctfield = &analysis.Analyzer{
	Name: "acctfield",
	Doc: "accounting fields tagged //acct: may only be written inside their owning type's methods; " +
		"foreign writes unbalance the conservation equations the invariant auditor checks",
	Run: runAcctfield,
}

func runAcctfield(pass *analysis.Pass) error {
	for _, w := range pass.Graph.AcctWrites() {
		if w.Field.Pkg() != pass.Pkg {
			continue
		}
		var recv *types.TypeName
		if m := w.Writer.Outer(); m != nil {
			if r := m.Type().(*types.Signature).Recv(); r != nil {
				recv = namedOf(r.Type())
			}
		}
		if recv == w.Owner {
			continue
		}
		where := "a plain function"
		if recv != nil {
			where = "a method of " + recv.Name()
		}
		pass.Reportf(w.Pos,
			"write to accounting field %s.%s from %s: //acct: fields may only be written by %s's own methods",
			w.Owner.Name(), w.Field.Name(), where, w.Owner.Name())
	}
	return nil
}

// namedOf resolves a receiver type, through one pointer, to its named
// type's declaration.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
