package cc

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"dcqcn/internal/simtest"
	"dcqcn/internal/simtime"
)

const testLineRate = 40 * simtime.Gbps

// TestRegistryComplete pins the registered algorithm set: a PR that
// drops a registration (or renames one) fails here, not in a CLI.
func TestRegistryComplete(t *testing.T) {
	want := []string{"dcqcn", "dctcp", "fixed", "policy", "qcn", "switch-assist", "timely"}
	got := Names()
	if !sort.StringsAreSorted(got) {
		t.Errorf("Names() not sorted: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("registered algorithms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered algorithms = %v, want %v", got, want)
		}
	}
}

// TestRegistryDefaults exercises every algorithm through the whole
// selection surface: defaults validate, a controller constructs, and
// the reactor interfaces it implements match its algorithm's Caps in
// both directions — the NIC subscribes a flow to exactly the reactors
// its controller implements, while Caps configures the fabric.
func TestRegistryDefaults(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sel, err := Select(name, testLineRate)
			if err != nil {
				t.Fatal(err)
			}
			if err := sel.Params.Validate(); err != nil {
				t.Fatalf("defaults do not validate: %v", err)
			}
			caps := sel.Caps()
			ctrl := sel.Algorithm.New(sel.Params, &simtest.Clock{})
			if ctrl == nil {
				t.Fatal("New returned nil")
			}
			defer ctrl.Stop()
			// A declared signal without its reactor would never reach the
			// controller. An implemented reactor whose signal Caps omits
			// would receive signals the fabric was not configured for;
			// policy alone is exempt, since it implements every reactor its
			// table may name and Caps lists what the loaded table does.
			_, ack := ctrl.(AckReactor)
			_, rtt := ctrl.(RTTReactor)
			_, qcn := ctrl.(QCNReactor)
			_, hint := ctrl.(HintReactor)
			for _, r := range []struct {
				bit         Capability
				implemented bool
				iface       string
			}{
				{CapAckECN, ack, "AckReactor"},
				{CapRTT, rtt, "RTTReactor"},
				{CapQCN, qcn, "QCNReactor"},
				{CapHint, hint, "HintReactor"},
			} {
				declared := caps&r.bit != 0
				switch {
				case declared && !r.implemented:
					t.Errorf("Caps declares %v without implementing %s", r.bit, r.iface)
				case r.implemented && !declared && name != "policy":
					t.Errorf("implements %s but Caps omits %v", r.iface, r.bit)
				}
			}
			if ctrl.Rate() <= 0 {
				t.Errorf("initial rate %v, want positive", ctrl.Rate())
			}
			// ParamsJSON must re-apply onto the same selection: the
			// provenance record is a valid -cc-params overlay.
			if err := sel.ApplyParamsJSON(sel.ParamsJSON()); err != nil {
				t.Errorf("ParamsJSON does not round-trip: %v", err)
			}
		})
	}
}

// TestRegisterPanics pins the registration contract: empty names,
// missing constructors and duplicates are programming errors.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, a Algorithm) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(a)
	}
	mustPanic("empty name", Algorithm{})
	mustPanic("missing ctors", Algorithm{Name: "x-test"})
	dup, _ := Lookup("dcqcn")
	mustPanic("duplicate", dup)
}

// TestSelectUnknown pins the unknown-name error shape every CLI relies
// on: it must fail (not fall back) and list what is registered.
func TestSelectUnknown(t *testing.T) {
	_, err := Select("no-such-algo", testLineRate)
	if err == nil {
		t.Fatal("Select(unknown) succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered algorithm %q", err, name)
		}
	}
}

// TestParseSelections covers the -cc flag grammar.
func TestParseSelections(t *testing.T) {
	sels, err := ParseSelections("dcqcn, timely,dctcp", testLineRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 3 || sels[0].Name != "dcqcn" || sels[1].Name != "timely" || sels[2].Name != "dctcp" {
		t.Fatalf("ParseSelections order wrong: %+v", sels)
	}
	if _, err := ParseSelections("dcqcn,dcqcn", testLineRate); err == nil {
		t.Error("duplicate selection accepted")
	}
	if _, err := ParseSelections("", testLineRate); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := ParseSelections("dcqcn,bogus", testLineRate); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestApplyParamsJSON covers the -cc-params overlay: refinement works,
// unknown fields and validation failures are rejected.
func TestApplyParamsJSON(t *testing.T) {
	sel, err := Select("dctcp", testLineRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.ApplyParamsJSON([]byte(`{"G": 0.25}`)); err != nil {
		t.Fatal(err)
	}
	if g := sel.Params.(*DCTCPParams).G; g != 0.25 {
		t.Errorf("G = %g after overlay, want 0.25", g)
	}
	if err := sel.ApplyParamsJSON([]byte(`{"NoSuchKnob": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if err := sel.ApplyParamsJSON([]byte(`{"G": -1}`)); err == nil {
		t.Error("invalid overlay accepted")
	}
}

// TestParamsJSONTags requires an explicit json tag on every exported
// field of every registered algorithm's parameter struct, through nested
// structs, slices and pointers: ApplyParamsJSON (-cc-params) needs a
// stable overlay name for each knob.
func TestParamsJSONTags(t *testing.T) {
	var check func(name string, typ reflect.Type, seen map[reflect.Type]bool)
	check = func(name string, typ reflect.Type, seen map[reflect.Type]bool) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue // json cannot reach it; overlays cannot either
			}
			if _, ok := f.Tag.Lookup("json"); !ok {
				t.Errorf("%s: %s.%s has no json tag", name, typ.Name(), f.Name)
			}
			check(name, f.Type, seen)
		}
	}
	for _, name := range Names() {
		a, _ := Lookup(name)
		check(name, reflect.TypeOf(a.Defaults(testLineRate)), map[reflect.Type]bool{})
	}
}
