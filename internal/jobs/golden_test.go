package jobs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.dfj from the current writer")

// goldenProtocolKey is the options key of the paper's Steane protocol, the
// key of the example header in docs/job-format.md.
const goldenProtocolKey = "code:Steane|prep=heu,budget=0|verif=opt,limit=0|flagall=false"

// goldenJobID is the content address of goldenSpec, recorded when the
// fixture was generated. It must never move: job files are found by it.
const goldenJobID = "841475d11da60c70fdfcd81d0702c10f"

// goldenSpec is the fixture's job: a fixed budget of exactly one shard at
// one Steane rate point.
func goldenSpec() Spec {
	return Spec{
		ProtocolKey: goldenProtocolKey,
		Method:      "direct",
		Rates:       []float64{0.01},
		MCShots:     ShardBlocks * sim.BlockShots,
	}
}

// goldenCounts are the literal counts of the fixture's one shard; nothing
// is sampled, so the fixture is deterministic by construction.
var goldenCounts = sim.Counts{Shots: ShardBlocks * sim.BlockShots, Fails: 41}

// goldenPoints returns the point's start and finished states, in the shape
// the runner writes them.
func goldenPoints() (start, done PointState) {
	start = PointState{Point: 0, Rate: 0.01, Method: "direct"}
	done = start
	done.Counts = goldenCounts
	done.Done = true
	return start, done
}

// writeGoldenJob writes the fixture's job into a fresh store under dir,
// record by record through Store.Create and Log.Append, and returns the
// file's bytes.
func writeGoldenJob(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg, _, err := st.Create(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	start, done := goldenPoints()
	counts := goldenCounts
	for _, rec := range []Record{
		{Kind: "point", State: &start},
		{Kind: "shard", Counts: &counts},
		{Kind: "point", State: &done},
		{Kind: "done"},
	} {
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, Filename(goldenSpec().ID())))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const goldenJobPath = "testdata/golden.dfj"

// TestStoreGoldenFile pins the job file format byte for byte: writing the
// fixture's spec and records through the store reproduces
// testdata/golden.dfj exactly. Regenerate with -update only together with a
// jobs.Version bump (docs/job-format.md).
func TestStoreGoldenFile(t *testing.T) {
	got := writeGoldenJob(t, t.TempDir())
	if *update {
		if err := os.WriteFile(goldenJobPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenJobPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job writer output differs from %s:\n got %s\nwant %s", goldenJobPath, got, want)
	}
}

// TestLoadGoldenFile pins the reader: the golden file folds to the pinned
// ID and to the finished state its records describe.
func TestLoadGoldenFile(t *testing.T) {
	data, err := os.ReadFile(goldenJobPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, Filename(goldenJobID)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(goldenJobID)
	if err != nil {
		t.Fatal(err)
	}
	_, done := goldenPoints()
	want := State{
		ID:      goldenJobID,
		Spec:    goldenSpec().Normalized(),
		Shards:  map[ShardKey]sim.Counts{{}: goldenCounts},
		Points:  map[int]PointState{0: done},
		Done:    true,
		Records: 4,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden file folds to\n %+v\nwant\n %+v", got, want)
	}
}

// TestSpecIDLiterals pins job identity across releases: the example spec
// of docs/job-format.md (with the full Steane key) keeps the IDs it had
// while jobs could still select the scalar engine. "" and "auto" share one
// ID; "batch", the same engine, keeps its own.
func TestSpecIDLiterals(t *testing.T) {
	const (
		autoID  = "846978e244b7fadad7d8db0da539d7dc"
		batchID = "15f48ffc61ebbf9122d60e5d7daa43cb"
	)
	if got := goldenSpec().ID(); got != goldenJobID {
		t.Errorf("golden spec ID = %s, want %s", got, goldenJobID)
	}
	for engine, want := range map[string]string{"": autoID, "auto": autoID, "batch": batchID} {
		s := Spec{
			ProtocolKey: goldenProtocolKey,
			Engine:      engine,
			Rates:       []float64{0.001, 0.01},
			TargetRSE:   0.1,
		}
		if got := s.ID(); got != want {
			t.Errorf("engine %q: ID = %s, want %s", engine, got, want)
		}
	}
}
