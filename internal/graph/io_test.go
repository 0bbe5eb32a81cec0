package graph

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

func TestReadEdgeListRejectsNonFiniteWeights(t *testing.T) {
	for _, bad := range []string{"+Inf", "Inf", "-Inf", "NaN", "0", "-1"} {
		in := "0 1 1.5\n1 2 " + bad + "\n"
		_, _, err := ReadEdgeList(strings.NewReader(in), false)
		if err == nil {
			t.Fatalf("weight %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("weight %q: error lacks line number: %v", bad, err)
		}
	}
}

func TestReadEdgeListAcceptsFinitePositiveWeights(t *testing.T) {
	g, labels, err := ReadEdgeList(strings.NewReader("0 1 1e308\n1 2 1e-300\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || len(labels) != 3 {
		t.Fatalf("got %d vertices, %d labels", g.N(), len(labels))
	}
}

func TestReadEdgeListTooLongLineReportsLineNumber(t *testing.T) {
	// The scanner buffer is 1 MiB; a longer comment line trips ErrTooLong.
	long := "# " + strings.Repeat("x", 1<<21)
	in := "0 1\n1 2\n" + long + "\n"
	_, _, err := ReadEdgeList(strings.NewReader(in), false)
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
}

// TestReadEdgeListTwoFieldLinesDoNotAllocate pins the byte-level path: a
// plain "<from> <to>" line costs no allocation, so the count stays flat as
// the input grows (the strings.Fields path spends two per line).
func TestReadEdgeListTwoFieldLinesDoNotAllocate(t *testing.T) {
	input := "# header\n" + strings.Repeat("12 34\n34\t56\r\n 56 12 \n", 20000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := ReadEdgeList(strings.NewReader(input), false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("ReadEdgeList of 60000 two-field lines made %.0f allocations, want at most 100", allocs)
	}
}
