package main

import (
	"testing"

	"sepdl"
)

// TestOracleAgreesWithEngine pins the oracle to the engine on both
// programs, so a mismatch in a run means the engine changed, not that the
// oracle is wrong.
func TestOracleAgreesWithEngine(t *testing.T) {
	buys, err := buysData(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset{buys, sgData(7)} {
		eng, err := setUpEngine(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range distinctKeys(d.keys)[:40] {
			res, err := eng.Query(d.query(k))
			if err != nil {
				t.Fatal(err)
			}
			if msg := checkRows(res.Rows(), d.want[k]); msg != "" {
				t.Errorf("%s: %s", d.query(k), msg)
			}
		}
	}
}

// TestWrongAnswerCaught checks that a read whose answer differs from the
// oracle's by one row, or misses one, is reported.
func TestWrongAnswerCaught(t *testing.T) {
	d := sgData(3)
	eng, err := setUpEngine(d)
	if err != nil {
		t.Fatal(err)
	}
	k := distinctKeys(d.keys)[0]
	res, err := eng.Query(d.query(k))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) < 2 {
		t.Fatalf("%s has %d answers; the test needs two", d.query(k), len(rows))
	}
	if msg := checkRows(rows, d.want[k]); msg != "" {
		t.Fatalf("the engine's own answer is reported wrong: %s", msg)
	}
	changed := append([][]string{{"nobody"}}, rows[1:]...)
	if checkRows(changed, d.want[k]) == "" {
		t.Error("an answer with one row replaced passed the check")
	}
	if checkRows(rows[1:], d.want[k]) == "" {
		t.Error("an answer with one row missing passed the check")
	}
}

// TestDroppedWriteCaught checks that an acknowledged write the engine does
// not hold is reported, both before and after a reopen, while writes it
// does hold pass.
func TestDroppedWriteCaught(t *testing.T) {
	d, err := buysData(5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := sepdl.Open(dir, serveOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadProgram(d.program); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadFacts(d.facts); err != nil {
		t.Fatal(err)
	}
	var acked [][2]string
	for i := 0; i < 3; i++ {
		f := writeFact(i, 5)
		if err := eng.AddFact("note", f[0], f[1]); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, f)
	}
	dropped := append(acked, writeFact(99, 5))

	check := func(eng *sepdl.Engine, when string) {
		out := newOutcome()
		if _, err := verifyDurable(eng, d, acked, when, out); err != nil {
			t.Fatal(err)
		}
		if len(out.wrongs) != 0 {
			t.Errorf("%s: writes the engine holds were reported lost: %v", when, out.wrongs)
		}
		out = newOutcome()
		if _, err := verifyDurable(eng, d, dropped, when, out); err != nil {
			t.Fatal(err)
		}
		if len(out.wrongs) != 1 {
			t.Errorf("%s: a dropped write gave %d reports, want 1: %v", when, len(out.wrongs), out.wrongs)
		}
	}
	check(eng, "before reopen")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err = sepdl.Open(dir, serveOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	check(eng, "after reopen")
}
