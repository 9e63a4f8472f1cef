package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simBin is the dcqcn-sim binary TestMain builds once for every test.
var simBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dcqcn-sim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simBin = filepath.Join(dir, "dcqcn-sim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", simBin, "dcqcn/cmd/dcqcn-sim").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build dcqcn-sim: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBadFlagsExit2 pins the usage-error contract for out-of-range
// values: exit status 2 and a message naming the flag, never a panic
// or a report full of NaNs.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-senders", "0"},
		{"-senders", "-1"},
		{"-chunk", "0"},
		{"-duration", "0s"},
		{"-stagger", "-1ms"},
	} {
		out, err := exec.Command(simBin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, args[0]) || strings.Contains(msg, "panic") {
			t.Errorf("%v: message does not name %s cleanly:\n%s", args, args[0], msg)
		}
	}
}

// TestSeriesStagger checks the -series table on a staggered run: one
// row per 100 µs period, the late sender reading 0 until it joins at
// 1 ms (the join runs before the sample at the same instant), and the
// summary on stdout unchanged by sampling.
func TestSeriesStagger(t *testing.T) {
	args := []string{"-senders", "2", "-stagger", "1ms", "-duration", "2ms"}
	bare, err := exec.Command(simBin, args...).Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	path := filepath.Join(t.TempDir(), "series.csv")
	sampled, err := exec.Command(simBin, append(args, "-series", path)...).Output()
	if err != nil {
		t.Fatalf("%v -series: %v", args, err)
	}
	if string(sampled) != string(bare) {
		t.Fatalf("-series changed stdout:\n%s\nwant:\n%s", sampled, bare)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if want := "time_s,flow1_gbps,flow2_gbps,queue_kb"; lines[0] != want {
		t.Fatalf("header %q, want %q", lines[0], want)
	}
	rows := lines[1:]
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20 (2 ms at 100 µs)", len(rows))
	}
	for _, row := range rows {
		cols := strings.Split(row, ",")
		if len(cols) != 4 {
			t.Fatalf("row %q has %d columns, want 4", row, len(cols))
		}
		at, err1 := strconv.ParseFloat(cols[0], 64)
		flow2, err2 := strconv.ParseFloat(cols[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %q: %v %v", row, err1, err2)
		}
		if joined := at >= 1e-3; joined != (flow2 > 0) || flow2 < 0 {
			t.Errorf("row %q: flow2_gbps = %g at %gs; want 0 before 1 ms, above 0 from 1 ms on", row, flow2, at)
		}
	}
}
