package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tatooine/internal/value"
)

// spillFixtureRels builds a join pair, left (a, k) and right (k, v),
// with duplicate keys, null keys and string payloads: enough entropy
// that any multiset divergence between the in-memory and spilled paths
// shows.
func spillFixtureRels(nLeft, nRight, keySpace int, seed int64) (left, right []value.Row) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nLeft; i++ {
		k := value.NewString(fmt.Sprintf("key%03d", rng.Intn(keySpace)))
		if rng.Intn(20) == 0 {
			k = value.NewNull() // null keys never join
		}
		left = append(left, value.Row{value.NewInt(int64(i)), k})
	}
	for i := 0; i < nRight; i++ {
		k := value.NewString(fmt.Sprintf("key%03d", rng.Intn(keySpace)))
		if rng.Intn(20) == 0 {
			k = value.NewNull()
		}
		right = append(right, value.Row{k, value.NewString(fmt.Sprintf("payload-%04d-%s", i, string(make([]byte, rng.Intn(40)))))})
	}
	return left, right
}

// spillJoinOn is the fixture's join on k, under budget.
func spillJoinOn(left, right []value.Row, budget int64, onSpill func(int64)) *hashJoin {
	return naturalJoin(newScan(left), newScan(right), []string{"a", "k"}, []string{"k", "v"}, budget, onSpill)
}

func rowMultiset(t *testing.T, rows []value.Row) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// TestHashJoinSpillMatchesInMemory is the core property: a join forced
// to spill produces exactly the row multiset of the in-memory join —
// duplicates preserved, null keys dropped — and reports spilled bytes.
func TestHashJoinSpillMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name                string
		nLeft, nRight, keys int
		seed                int64
	}{
		{"dense-overlap", 400, 600, 50, 1},
		{"sparse-overlap", 300, 300, 5000, 2},
		{"skewed-single-key", 200, 500, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			left, right := spillFixtureRels(tc.nLeft, tc.nRight, tc.keys, tc.seed)
			ref, err := Materialize(spillJoinOn(left, right, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			var spilled int64
			got, err := Materialize(spillJoinOn(left, right, 1<<10, func(b int64) { spilled += b }))
			if err != nil {
				t.Fatal(err)
			}
			if spilled <= 0 {
				t.Fatalf("build side of %d rows under a 1 KiB budget did not spill", tc.nRight)
			}
			wantRows, gotRows := rowMultiset(t, ref), rowMultiset(t, got)
			if len(gotRows) != len(wantRows) {
				t.Fatalf("spilled join returned %d rows, in-memory %d", len(gotRows), len(wantRows))
			}
			for i := range wantRows {
				if gotRows[i] != wantRows[i] {
					t.Fatalf("row multiset diverges at %d:\n got %q\nwant %q", i, gotRows[i], wantRows[i])
				}
			}
		})
	}
}

// TestHashJoinBudgetNoSpillUnderBudget: a build side within budget must
// never touch disk, and a generous budget changes nothing about the
// result.
func TestHashJoinBudgetNoSpillUnderBudget(t *testing.T) {
	left, right := spillFixtureRels(50, 40, 20, 7)
	var spilled int64
	got, err := Materialize(spillJoinOn(left, right, 1<<30, func(b int64) { spilled += b }))
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Fatalf("join within budget spilled %d bytes", spilled)
	}
	ref, err := Materialize(spillJoinOn(left, right, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("got %d rows, want %d", len(got), len(ref))
	}
}

// TestHashJoinCrossProductNeverSpills: with no shared columns there is
// no key to partition on; the join must run in memory regardless of
// budget rather than failing or spilling uselessly.
func TestHashJoinCrossProductNeverSpills(t *testing.T) {
	var left, right []value.Row
	for i := 0; i < 100; i++ {
		left = append(left, value.Row{value.NewInt(int64(i))})
		right = append(right, value.Row{value.NewString(fmt.Sprintf("r%d", i))})
	}
	var spilled int64
	got, err := Materialize(naturalJoin(newScan(left), newScan(right), []string{"a"}, []string{"b"}, 1,
		func(b int64) { spilled += b }))
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Fatalf("cross product spilled %d bytes", spilled)
	}
	if len(got) != 100*100 {
		t.Fatalf("cross product returned %d rows, want %d", len(got), 100*100)
	}
}

// TestSpillJoinExecutorParity runs the same federated query under a
// tiny join memory budget with probe fan-out, without it, and in
// NaiveOrder's sequential schedule: every run must return the
// reference evaluator's answer (oracle_test.go) and report the spill in
// ExecStats.
func TestSpillJoinExecutorParity(t *testing.T) {
	const keys = 150
	q := mustParse(t, streamQuery)
	for _, tc := range []struct {
		name string
		opts ExecOptions
	}{
		{"streaming", ExecOptions{Parallel: true, JoinMemBudget: 256}},
		{"sequential", ExecOptions{Parallel: false, JoinMemBudget: 256}},
		{"naive-order", ExecOptions{Parallel: true, NaiveOrder: true, JoinMemBudget: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, _ := streamFixture(t, keys, 0)
			res, err := in.ExecuteOpts(q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != keys {
				t.Fatalf("budgeted run returned %d rows, want %d", len(res.Rows), keys)
			}
			if err := checkOracle(in, q, res); err != nil {
				t.Fatal(err)
			}
			if res.Stats.SpilledJoins == 0 {
				t.Fatal("256-byte budget over 150 build rows did not report a spilled join")
			}
			if res.Stats.SpilledBytes <= 0 {
				t.Fatalf("SpilledJoins=%d but SpilledBytes=%d", res.Stats.SpilledJoins, res.Stats.SpilledBytes)
			}
		})
	}
}
