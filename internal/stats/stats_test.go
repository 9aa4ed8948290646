package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestTrafficAccumulation(t *testing.T) {
	var tr Traffic
	tr.Add(Device, Data, 100)
	tr.Add(Device, Counter, 10)
	tr.Add(Device, MAC, 20)
	tr.Add(Device, BMT, 5)
	tr.Add(Device, Mapping, 7)
	tr.Add(CXL, Data, 50)
	tr.Add(CXL, MAC, 8)

	if got := tr.Bytes(Device, Data); got != 100 {
		t.Errorf("Bytes(Device, Data) = %d, want 100", got)
	}
	if got := tr.TierTotal(Device); got != 142 {
		t.Errorf("TierTotal(Device) = %d, want 142", got)
	}
	if got := tr.SecurityBytes(Device); got != 35 {
		t.Errorf("SecurityBytes(Device) = %d, want 35 (mapping excluded)", got)
	}
	if got := tr.SecurityBytes(CXL); got != 8 {
		t.Errorf("SecurityBytes(CXL) = %d, want 8", got)
	}
	if got := tr.TotalSecurityBytes(); got != 43 {
		t.Errorf("TotalSecurityBytes = %d, want 43", got)
	}
	if got := tr.Total(); got != 200 {
		t.Errorf("Total = %d, want 200", got)
	}
}

func TestRunIPC(t *testing.T) {
	r := Run{Cycles: 1000, Instructions: 2500}
	if got := r.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	empty := Run{}
	if got := empty.IPC(); got != 0 {
		t.Errorf("IPC of empty run = %v, want 0", got)
	}
}

func TestSecurityTrafficShare(t *testing.T) {
	r := Run{}
	r.Traffic.Add(CXL, Data, 80)
	r.Traffic.Add(CXL, MAC, 20)
	if got := r.SecurityTrafficShare(CXL); got != 0.2 {
		t.Errorf("SecurityTrafficShare = %v, want 0.2", got)
	}
	if got := r.SecurityTrafficShare(Device); got != 0 {
		t.Errorf("SecurityTrafficShare on empty tier = %v, want 0", got)
	}
}

func TestRunString(t *testing.T) {
	r := Run{Workload: "bfs", Model: "salus", Cycles: 10, Instructions: 20}
	s := r.String()
	for _, frag := range []string{"workload=bfs", "model=salus", "ipc=2.0000", "device", "cxl"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestRunStringFaultsLine(t *testing.T) {
	r := Run{Workload: "bfs", Model: "salus"}
	if strings.Contains(r.String(), "faults ") {
		t.Errorf("fault-free run should not render a faults line:\n%s", r.String())
	}
	if r.Ops.HasFaults() {
		t.Error("zero Ops reported HasFaults")
	}
	r.Ops.FaultsTransient = 7
	r.Ops.Retries = 7
	r.Ops.ChunksPoisoned = 2
	if !r.Ops.HasFaults() {
		t.Error("non-zero fault counters not reported by HasFaults")
	}
	s := r.String()
	for _, frag := range []string{"faults transient=7", "retries=7", "poisonedChunks=2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestHasFaultsIncludesTrailingCategories(t *testing.T) {
	// The faults line must render (with its full, stable column set) even
	// when only a trailing category is non-zero; the old predicate skipped
	// RetryBackoffCycles and TransparentRecoveries, silently dropping the
	// line from such runs.
	backoff := Run{}
	backoff.Ops.RetryBackoffCycles = 64
	if !backoff.Ops.HasFaults() {
		t.Error("backoff-only Ops not reported by HasFaults")
	}
	if !strings.Contains(backoff.String(), "backoff=64") {
		t.Errorf("backoff-only run dropped its faults line:\n%s", backoff.String())
	}
	recovered := Run{}
	recovered.Ops.TransparentRecoveries = 3
	if !recovered.Ops.HasFaults() {
		t.Error("recovery-only Ops not reported by HasFaults")
	}
	if !strings.Contains(recovered.String(), "recovered=3") {
		t.Errorf("recovery-only run dropped its faults line:\n%s", recovered.String())
	}
	// Column stability: the line carries every category even when zero.
	for _, frag := range []string{"transient=0", "poison=0", "stuckBit=0", "retries=0",
		"recovered=0", "quarantinedFrames=0", "poisonedChunks=0", "pinnedPages=0"} {
		if !strings.Contains(backoff.String(), frag) {
			t.Errorf("faults line missing stable column %q:\n%s", frag, backoff.String())
		}
	}
}

func TestRunStringLinkLine(t *testing.T) {
	r := Run{Workload: "bfs", Model: "salus"}
	if strings.Contains(r.String(), "link ") {
		t.Errorf("link-free run should not render a link line:\n%s", r.String())
	}
	if r.Ops.HasLink() {
		t.Error("zero Ops reported HasLink")
	}
	r.Ops.LinkFlaps = 4
	r.Ops.LinkDownRefusals = 9
	r.Ops.BreakerOpens = 2
	r.Ops.WritebacksQueued = 3
	r.Ops.WritebacksDrained = 3
	r.Ops.WritebackQueuePeak = 2
	if !r.Ops.HasLink() {
		t.Error("non-zero link counters not reported by HasLink")
	}
	s := r.String()
	for _, frag := range []string{"link flaps=4", "downRefusals=9", "breakerOpens=2",
		"wbQueued=3", "wbDrained=3", "wbDropped=0", "wbPeak=2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
	// A drain with zero flaps (e.g. only breaker fast-fails recorded)
	// still renders the line.
	just := Run{}
	just.Ops.WritebackQueuePeak = 1
	if !just.Ops.HasLink() || !strings.Contains(just.String(), "wbPeak=1") {
		t.Error("trailing-only link counter dropped the link line")
	}
}

func TestRunStringCheckpointLine(t *testing.T) {
	r := Run{Workload: "bfs", Model: "salus"}
	if strings.Contains(r.String(), "checkpoints ") {
		t.Errorf("checkpoint-free run should not render a checkpoints line:\n%s", r.String())
	}
	if r.Ops.HasCheckpoints() {
		t.Error("zero Ops reported HasCheckpoints")
	}
	r.Ops.Checkpoints = 4
	r.Ops.CheckpointPages = 9
	r.Ops.CheckpointWritebacks = 5
	r.Ops.CheckpointBytes = 4000
	r.Ops.CheckpointCycles = 300
	if !r.Ops.HasCheckpoints() {
		t.Error("non-zero checkpoint counters not reported by HasCheckpoints")
	}
	s := r.String()
	for _, frag := range []string{"checkpoints epochs=4", "pages=9", "writebacks=5", "journalBytes=4000", "(1000B/epoch)", "cycles=300"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestTierClassString(t *testing.T) {
	if Device.String() != "device" || CXL.String() != "cxl" {
		t.Error("tier names wrong")
	}
	names := map[Class]string{Data: "data", Counter: "counter", MAC: "mac", BMT: "bmt", Mapping: "mapping"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if s := Tier(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown tier string = %q", s)
	}
	if s := Class(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown class string = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"workload", "ipc"}}
	tab.AddRow("nw", "1.30")
	tab.AddRow("bfs", "0.95")
	tab.SortRowsByFirstColumn()
	if tab.Rows[0][0] != "bfs" {
		t.Errorf("sort failed: first row %v", tab.Rows[0])
	}
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "workload") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule line = %q", lines[1])
	}
}

func TestTableToleratesEmptyAndRaggedRows(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("zeta", "1")
	tb.AddRow()                              // empty row
	tb.AddRow("alpha", "2", "extra", "wide") // wider than the header
	tb.AddRow("mid")                         // narrower than the header

	tb.SortRowsByFirstColumn() // must not panic on the empty row
	if len(tb.Rows[0]) != 0 {
		t.Errorf("empty row should sort first, got %v", tb.Rows[0])
	}
	if tb.Rows[1][0] != "alpha" || tb.Rows[3][0] != "zeta" {
		t.Errorf("rows not sorted: %v", tb.Rows)
	}

	out := tb.String() // must not panic on ragged rows
	for _, want := range []string{"name", "alpha", "extra", "wide", "mid", "zeta"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	tb := &Table{}
	tb.SortRowsByFirstColumn()
	if out := tb.String(); out == "" {
		t.Error("empty table should still render the separator line")
	}
}

func TestRunStringServeLines(t *testing.T) {
	r := Run{Workload: "serve", Model: "salus"}
	if strings.Contains(r.String(), "serve class=") {
		t.Errorf("serve-free run should not render serve lines:\n%s", r.String())
	}
	if r.Ops.HasServe() {
		t.Error("zero Ops reported HasServe")
	}
	r.Ops.Serve[ServeInteractive].Served = 90
	r.Ops.Serve[ServeInteractive].Deadline = 1
	r.Ops.Serve[ServeBulk].Shed = 12
	if !r.Ops.HasServe() {
		t.Error("non-zero serve counters not reported by HasServe")
	}
	s := r.String()
	// One line per class, every class every time, full stable column set.
	for _, frag := range []string{
		"serve class=interactive served=90 shed=0 deadline=1 overload=0 refused=0 retries=0 ambiguous=0",
		"serve class=batch served=0 shed=0 deadline=0 overload=0 refused=0 retries=0 ambiguous=0",
		"serve class=bulk served=0 shed=12 deadline=0 overload=0 refused=0 retries=0 ambiguous=0",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing serve line %q:\n%s", frag, s)
		}
	}
}

func TestHasServeTrailingCategories(t *testing.T) {
	// Every ServeOps field participates in HasServe, mirroring the
	// HasFaults trailing-category fix from PR 5.
	cases := []func(*Ops){
		func(o *Ops) { o.Serve[ServeBatch].Served = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Shed = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Deadline = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Overload = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Refused = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Retries = 1 },
		func(o *Ops) { o.Serve[ServeBatch].Ambiguous = 1 },
	}
	for i, set := range cases {
		var o Ops
		set(&o)
		if !o.HasServe() {
			t.Errorf("case %d: single non-zero serve field not reported by HasServe", i)
		}
	}
	s := ServeOps{Served: 3, Shed: 1, Deadline: 1, Overload: 1, Refused: 2}
	if got := s.Attempts(); got != 8 {
		t.Errorf("Attempts() = %d, want 8", got)
	}
}

func TestServeClassString(t *testing.T) {
	want := map[ServeClass]string{ServeInteractive: "interactive", ServeBatch: "batch", ServeBulk: "bulk"}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("ServeClass(%d).String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if got := ServeClass(99).String(); got != "serveclass(99)" {
		t.Errorf("out-of-range class String() = %q", got)
	}
	if NumServeClasses != 3 {
		t.Errorf("NumServeClasses = %d, want 3", NumServeClasses)
	}
}

// TestTenantTableRaggedInput pins the ragged-input contract of the
// per-tenant rollup: an empty tenant list renders header-only, unnamed
// tenants render as "-", duplicate names keep their own rows, and
// map-fed input comes out sorted by name.
func TestTenantTableRaggedInput(t *testing.T) {
	empty := (&Ops{}).TenantTable().String()
	for _, col := range []string{"tenant", "reads", "writes", "denied", "quota", "integrity", "faults", "ckpts", "recovers"} {
		if !strings.Contains(empty, col) {
			t.Fatalf("empty table missing column %q:\n%s", col, empty)
		}
	}
	if rows := (&Ops{}).TenantTable().Rows; len(rows) != 0 {
		t.Fatalf("empty tenant list must render header-only, got %d rows", len(rows))
	}

	o := Ops{Tenants: []TenantOps{
		{Name: "zeta", Reads: 1},
		{Name: "", Quota: 7},
		{Name: "alpha", Denied: 2},
		{Name: "alpha", Recovers: 3}, // duplicate name: its own row survives
	}}
	if !o.HasTenants() {
		t.Fatal("HasTenants missed recorded activity")
	}
	tab := o.TenantTable()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d, want 4 (duplicates must not merge)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "-" {
		t.Fatalf("unnamed tenant rendered %q, want \"-\"", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "alpha" || tab.Rows[2][0] != "alpha" || tab.Rows[3][0] != "zeta" {
		t.Fatalf("rows not name-sorted: %v", tab.Rows)
	}
	if got := tab.Rows[0][4]; got != "7" {
		t.Fatalf("unnamed tenant quota cell %q, want 7", got)
	}

	// A tenant whose only activity is a trailing category still counts.
	trail := Ops{Tenants: []TenantOps{{Name: "idle"}, {Name: "ck", Recovers: 1}}}
	if !trail.HasTenants() {
		t.Fatal("HasTenants missed trailing-category activity")
	}
	if (&Ops{Tenants: []TenantOps{{Name: "idle"}}}).HasTenants() {
		t.Fatal("HasTenants reported activity for an all-zero tenant")
	}
}

// TestMigrateTableRaggedInput pins the ragged-input contract of the
// migration rollup, mirroring the TenantTable convention: an empty
// migration list renders header-only, unnamed rows render as "-",
// duplicate names keep their own rows, map-fed input comes out sorted,
// and trailing-category-only activity still counts.
func TestMigrateTableRaggedInput(t *testing.T) {
	empty := (&Ops{}).MigrateTable().String()
	for _, col := range []string{"tenant", "rounds", "sent", "skipped", "bytes", "retries", "resumes", "torn", "replay", "attest", "fresh"} {
		if !strings.Contains(empty, col) {
			t.Fatalf("empty table missing column %q:\n%s", col, empty)
		}
	}
	if rows := (&Ops{}).MigrateTable().Rows; len(rows) != 0 {
		t.Fatalf("empty migration list must render header-only, got %d rows", len(rows))
	}

	o := Ops{Migrates: []MigrateOps{
		{Tenant: "zeta", Rounds: 2},
		{Tenant: "", Retries: 5},
		{Tenant: "alpha", ChunksSent: 9},
		{Tenant: "alpha", Fresh: 1}, // duplicate name: its own row survives
	}}
	if !o.HasMigrates() {
		t.Fatal("HasMigrates missed recorded activity")
	}
	tab := o.MigrateTable()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d, want 4 (duplicates must not merge)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "-" {
		t.Fatalf("unnamed migration rendered %q, want \"-\"", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "alpha" || tab.Rows[2][0] != "alpha" || tab.Rows[3][0] != "zeta" {
		t.Fatalf("rows not name-sorted: %v", tab.Rows)
	}
	if got := tab.Rows[0][5]; got != "5" {
		t.Fatalf("unnamed migration retries cell %q, want 5", got)
	}

	// A migration whose only activity is the trailing rejection
	// category still counts; an all-zero row does not.
	if !(&Ops{Migrates: []MigrateOps{{Tenant: "x", Fresh: 1}}}).HasMigrates() {
		t.Fatal("HasMigrates missed trailing-category activity")
	}
	if (&Ops{Migrates: []MigrateOps{{Tenant: "idle"}}}).HasMigrates() {
		t.Fatal("HasMigrates reported activity for an all-zero row")
	}

	// The Run summary renders one migrate line per entry.
	r := Run{Ops: Ops{Migrates: []MigrateOps{{Tenant: "m", Rounds: 3, BytesStreamed: 77}}}}
	if s := r.String(); !strings.Contains(s, "migrate tenant=m rounds=3 sent=0 skipped=0 bytes=77") {
		t.Fatalf("Run summary missing migrate line:\n%s", s)
	}
}

// TestAddSumsEveryCounter guards the typed adders against a counter added
// to TenantOps or MigrateOps but not to its Add.
func TestAddSumsEveryCounter(t *testing.T) {
	check := func(dst, src any, add func()) {
		d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
		for i := 0; i < d.NumField(); i++ {
			if d.Field(i).Kind() == reflect.Uint64 {
				d.Field(i).SetUint(100)
				s.Field(i).SetUint(uint64(i + 1))
			}
		}
		add()
		for i := 0; i < d.NumField(); i++ {
			f := d.Field(i)
			if f.Kind() == reflect.Uint64 && f.Uint() != uint64(101+i) {
				t.Errorf("%s.%s = %d after Add, want %d", d.Type().Name(), d.Type().Field(i).Name, f.Uint(), 101+i)
			}
		}
	}
	ta, tb := TenantOps{Name: "a"}, TenantOps{Name: "b"}
	check(&ta, &tb, func() { ta.Add(&tb) })
	ma, mb := MigrateOps{Tenant: "a"}, MigrateOps{Tenant: "b"}
	check(&ma, &mb, func() { ma.Add(&mb) })
	if ta.Name != "a" || ma.Tenant != "a" {
		t.Errorf("Add renamed the row: %q, %q", ta.Name, ma.Tenant)
	}
}
