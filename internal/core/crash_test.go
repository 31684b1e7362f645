package core

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"tatooine/internal/rdf"
)

const crashDirEnv = "TATOOINE_CRASH_DIR"

// TestCrashHelper is not a test: it is the workload subprocess for
// TestCrashRecoverySIGKILL, entered only when the env var is set. It
// opens a persistent saturated instance and commits an endless sequence
// of mutations — each iteration inserts one data triple in one WAL
// transaction — reporting each committed epoch on stdout until the
// parent SIGKILLs it (no checkpoint, no close).
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("helper mode: only runs as a subprocess of TestCrashRecoverySIGKILL")
	}
	in, err := Open(dir, WithSaturation(), WithPrefixes(map[string]string{"": "http://t.example/"}))
	if err != nil {
		fmt.Println("ERR", err)
		return
	}
	// Mutation 1: the schema triple (:A subClassOf :B), so every data
	// triple below derives a consequence in G∞.
	in.AddTriples([]rdf.Triple{{
		S: rdf.NewIRI("http://t.example/A"),
		P: rdf.NewIRI(rdf.RDFSSubClassOf),
		O: rdf.NewIRI("http://t.example/B"),
	}})
	// Build (and persist) the materialized saturation.
	if _, err := in.Query("QUERY q(?x)\nGRAPH { ?x a <http://t.example/B> }"); err != nil {
		fmt.Println("ERR", err)
		return
	}
	for i := 1; ; i++ {
		in.AddTriples([]rdf.Triple{{
			S: rdf.NewIRI(fmt.Sprintf("http://t.example/x%d", i)),
			P: rdf.NewIRI(rdf.RDFType),
			O: rdf.NewIRI("http://t.example/A"),
		}})
		if err := in.StoreErr(); err != nil {
			fmt.Println("ERR", err)
			return
		}
		fmt.Printf("C %d\n", in.Epoch())
	}
}

// TestCrashRecoverySIGKILL kills a workload subprocess mid-mutation —
// no checkpoint, no clean close, WAL tail possibly torn — then reopens
// the data directory and asserts the recovered state is EXACTLY the
// committed prefix: epoch e, base graph = schema + data triples
// x1..x(e-1), and G∞ = the precise saturation of that base (adopted
// warm, zero recomputes).
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch committed epochs; kill somewhere past a handful of commits.
	lastCommitted := uint64(0)
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "ERR") {
				t.Errorf("helper: %s", line)
				return
			}
			if strings.HasPrefix(line, "C ") {
				if v, err := strconv.ParseUint(line[2:], 10, 64); err == nil {
					lastCommitted = v
					if v >= 8 {
						return
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		cmd.Process.Kill()
		t.Fatal("helper never reached 8 commits")
	}
	// SIGKILL: the process dies wherever it is — possibly inside a WAL
	// append — with no chance to flush or close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if t.Failed() {
		return
	}
	if lastCommitted < 8 {
		t.Fatalf("helper reported only %d commits", lastCommitted)
	}

	in, err := Open(dir, WithSaturation(), WithPrefixes(map[string]string{"": "http://t.example/"}))
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer in.Close()

	e := in.Epoch()
	if e < lastCommitted {
		t.Fatalf("recovered epoch %d < last reported committed epoch %d", e, lastCommitted)
	}
	// Base graph: the schema triple plus exactly x1..x(e-1).
	g := in.Graph()
	if got, want := g.Size(), int(e); got != want {
		t.Fatalf("recovered graph size = %d, want %d (epoch %d)", got, want, e)
	}
	typ := rdf.NewIRI(rdf.RDFType)
	clsA := rdf.NewIRI("http://t.example/A")
	for i := uint64(1); i < e; i++ {
		tr := rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://t.example/x%d", i)), P: typ, O: clsA}
		if !g.Contains(tr) {
			t.Fatalf("committed triple x%d missing after recovery", i)
		}
	}
	if g.Contains(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://t.example/x%d", e)), P: typ, O: clsA}) {
		t.Fatalf("uncommitted triple x%d survived the crash", e)
	}

	// G∞ was adopted warm and is exactly the saturation of the base:
	// every xi also types :B, and nothing else was derived.
	st := in.SaturationStats()
	if st.Mode != "delta" || st.FullRecomputes != 0 {
		t.Fatalf("recovered saturation stats = %+v (want adopted, 0 recomputes)", st)
	}
	if got, want := st.Derived, int(e-1); got != want {
		t.Fatalf("recovered derived count = %d, want %d", got, want)
	}
	res, err := in.Query("QUERY q(?x)\nGRAPH { ?x a <http://t.example/B> }")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), int(e-1); got != want {
		t.Fatalf("saturated query rows = %d, want %d", got, want)
	}
}
