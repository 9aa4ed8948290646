// Package stats collects the measurements every experiment reports: traffic
// by class and memory tier, instruction throughput, migration activity, and
// security-operation counts.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Tier identifies a memory tier.
type Tier int

const (
	// Device is the GPU-local HBM/GDDR memory.
	Device Tier = iota
	// CXL is the CXL-attached expansion memory.
	CXL
	numTiers
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case Device:
		return "device"
	case CXL:
		return "cxl"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Class categorises memory traffic.
type Class int

const (
	// Data is application data traffic (including migration copies).
	Data Class = iota
	// Counter is encryption-counter block traffic.
	Counter
	// MAC is MAC sector traffic.
	MAC
	// BMT is integrity-tree node traffic.
	BMT
	// Mapping is CXL-to-GPU mapping table traffic.
	Mapping
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Counter:
		return "counter"
	case MAC:
		return "mac"
	case BMT:
		return "bmt"
	case Mapping:
		return "mapping"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ServeClass identifies a traffic-service client class (salus-serve).
// Order is priority order: lower values are more latency-sensitive and
// are shed last under overload.
type ServeClass int

const (
	// ServeInteractive is latency-sensitive foreground traffic; the
	// degradation tiers never shed it.
	ServeInteractive ServeClass = iota
	// ServeBatch is throughput-oriented traffic, shed only at the
	// deepest degradation tier.
	ServeBatch
	// ServeBulk is background traffic, shed first under pressure.
	ServeBulk
	// NumServeClasses is the fixed class count; per-class arrays are
	// indexed by ServeClass.
	NumServeClasses
)

// String returns the class name.
func (c ServeClass) String() string {
	switch c {
	case ServeInteractive:
		return "interactive"
	case ServeBatch:
		return "batch"
	case ServeBulk:
		return "bulk"
	}
	return fmt.Sprintf("serveclass(%d)", int(c))
}

// ServeOps counts one client class's request outcomes in service mode.
// Served + Shed + Deadline + Overload + Refused covers every request the
// class ever submitted: a request is exactly one of served, shed by a
// degradation tier, rejected on its deadline, refused by admission
// control, or refused typed by the engine (link/fault/ambiguous-write).
type ServeOps struct {
	Served    uint64 // requests completed successfully
	Shed      uint64 // requests shed by a degradation tier (ErrShed)
	Deadline  uint64 // requests rejected on deadline (ErrDeadline)
	Overload  uint64 // requests refused by admission control (ErrOverload)
	Refused   uint64 // engine-level typed refusals (link, fault, ambiguous)
	Retries   uint64 // service-level retries issued for idempotent requests
	Ambiguous uint64 // writes that failed ambiguously (never retried)
}

// Attempts returns every request the class submitted.
func (s *ServeOps) Attempts() uint64 {
	return s.Served + s.Shed + s.Deadline + s.Overload + s.Refused
}

// TenantOps counts one tenant's request outcomes at the pool boundary
// (internal/tenant). Reads+Writes are the attempts that entered the
// tenant's engine; the denial categories are the typed refusals the
// isolation layer returned instead of bytes. Like ServeOps, every field
// is a monotone uint64 and the column set is part of the stable-output
// contract.
type TenantOps struct {
	Name string // tenant identifier ("" renders as "-")

	Reads  uint64 // in-slice reads attempted
	Writes uint64 // in-slice writes attempted

	Denied    uint64 // out-of-slice probes refused typed (ErrTenantDenied)
	Quota     uint64 // ops refused by the tenant op quota (ErrQuota)
	Integrity uint64 // reads refused by MAC/tree verification (spliced ciphertext)
	Faults    uint64 // typed fault/link refusals (transient, poison, link, queue)

	Checkpoints uint64 // per-tenant checkpoint epochs committed
	Recovers    uint64 // per-tenant crash/recover cycles completed
}

// Attempts returns every operation the tenant ever submitted, served or
// refused.
func (t *TenantOps) Attempts() uint64 {
	return t.Reads + t.Writes + t.Denied + t.Quota
}

// Add sums o's counters into t, keeping t's name.
func (t *TenantOps) Add(o *TenantOps) {
	t.Reads += o.Reads
	t.Writes += o.Writes
	t.Denied += o.Denied
	t.Quota += o.Quota
	t.Integrity += o.Integrity
	t.Faults += o.Faults
	t.Checkpoints += o.Checkpoints
	t.Recovers += o.Recovers
}

// HasTenants reports whether any per-tenant activity was recorded.
// Mirroring HasFaults' discipline, every field participates so a tenant
// whose only activity is a trailing category still renders its row.
func (o *Ops) HasTenants() bool {
	for i := range o.Tenants {
		t := &o.Tenants[i]
		if t.Reads != 0 || t.Writes != 0 || t.Denied != 0 || t.Quota != 0 ||
			t.Integrity != 0 || t.Faults != 0 || t.Checkpoints != 0 || t.Recovers != 0 {
			return true
		}
	}
	return false
}

// TenantTable renders the per-tenant rollup with the same stable-column
// discipline as the link/fault lines: every column every time, rows
// sorted by tenant name so map-fed input stays deterministic. Ragged
// input is tolerated — an empty tenant list yields a header-only table,
// unnamed tenants render as "-", duplicate names keep their own rows.
func (o *Ops) TenantTable() *Table {
	t := &Table{Header: []string{"tenant", "reads", "writes", "denied", "quota", "integrity", "faults", "ckpts", "recovers"}}
	for i := range o.Tenants {
		row := &o.Tenants[i]
		name := row.Name
		if name == "" {
			name = "-"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", row.Reads), fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.Denied), fmt.Sprintf("%d", row.Quota),
			fmt.Sprintf("%d", row.Integrity), fmt.Sprintf("%d", row.Faults),
			fmt.Sprintf("%d", row.Checkpoints), fmt.Sprintf("%d", row.Recovers))
	}
	t.SortRowsByFirstColumn()
	return t
}

// MigrateOps counts one attested live migration's activity
// (internal/migrate). The sent/skipped split is the resume contract
// made measurable: chunks the destination already verified are skipped,
// never re-streamed. The four rejection counters are the typed-failure
// taxonomy observed at the receiving endpoint — in an honest run all
// four stay zero. Like TenantOps, every field is monotone and the
// column set is part of the stable-output contract.
type MigrateOps struct {
	Tenant string // migrated tenant id ("" renders as "-")

	Rounds        uint64 // delta rounds streamed, including the full bootstrap round
	ChunksSent    uint64 // stream chunks transferred and verified
	ChunksSkipped uint64 // verified chunks not re-sent across resumes
	BytesStreamed uint64 // framed stream bytes delivered
	Retries       uint64 // link-transfer retries (flaps absorbed by backoff)
	Resumes       uint64 // record-level resumes after a lost link came back

	Torn   uint64 // records rejected ErrTornStream (truncation, bit flips)
	Replay uint64 // records rejected ErrReplay (reorder, duplication)
	Attest uint64 // records rejected ErrAttestation (MAC/handshake forgery)
	Fresh  uint64 // records rejected ErrFreshness (epoch/lineage rollback)
}

// Add sums o's counters into m, keeping m's tenant id.
func (m *MigrateOps) Add(o *MigrateOps) {
	m.Rounds += o.Rounds
	m.ChunksSent += o.ChunksSent
	m.ChunksSkipped += o.ChunksSkipped
	m.BytesStreamed += o.BytesStreamed
	m.Retries += o.Retries
	m.Resumes += o.Resumes
	m.Torn += o.Torn
	m.Replay += o.Replay
	m.Attest += o.Attest
	m.Fresh += o.Fresh
}

// HasMigrates reports whether any migration activity was recorded.
// Every field participates, mirroring HasTenants' discipline.
func (o *Ops) HasMigrates() bool {
	for i := range o.Migrates {
		m := &o.Migrates[i]
		if m.Rounds != 0 || m.ChunksSent != 0 || m.ChunksSkipped != 0 ||
			m.BytesStreamed != 0 || m.Retries != 0 || m.Resumes != 0 ||
			m.Torn != 0 || m.Replay != 0 || m.Attest != 0 || m.Fresh != 0 {
			return true
		}
	}
	return false
}

// MigrateTable renders the migration rollup with the same stable-column
// discipline as TenantTable: every column every time, rows sorted by
// tenant name, ragged input tolerated (empty list renders header-only,
// unnamed rows render as "-", duplicates keep their own rows).
func (o *Ops) MigrateTable() *Table {
	t := &Table{Header: []string{"tenant", "rounds", "sent", "skipped", "bytes", "retries", "resumes", "torn", "replay", "attest", "fresh"}}
	for i := range o.Migrates {
		row := &o.Migrates[i]
		name := row.Tenant
		if name == "" {
			name = "-"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", row.Rounds), fmt.Sprintf("%d", row.ChunksSent),
			fmt.Sprintf("%d", row.ChunksSkipped), fmt.Sprintf("%d", row.BytesStreamed),
			fmt.Sprintf("%d", row.Retries), fmt.Sprintf("%d", row.Resumes),
			fmt.Sprintf("%d", row.Torn), fmt.Sprintf("%d", row.Replay),
			fmt.Sprintf("%d", row.Attest), fmt.Sprintf("%d", row.Fresh))
	}
	t.SortRowsByFirstColumn()
	return t
}

// SecurityClasses lists the classes counted as security traffic. Mapping
// traffic is bookkeeping for the DRAM cache, present in all models, and is
// not security metadata.
var SecurityClasses = []Class{Counter, MAC, BMT}

// Traffic accumulates bytes moved, indexed by tier and class.
type Traffic struct {
	bytes [numTiers][numClasses]uint64
}

// Add records n bytes of traffic of class c on tier t.
func (tr *Traffic) Add(t Tier, c Class, n uint64) { tr.bytes[t][c] += n }

// Bytes returns the bytes recorded for (tier, class).
func (tr *Traffic) Bytes(t Tier, c Class) uint64 { return tr.bytes[t][c] }

// TierTotal returns all bytes moved on a tier.
func (tr *Traffic) TierTotal(t Tier) uint64 {
	var sum uint64
	for c := Class(0); c < numClasses; c++ {
		sum += tr.bytes[t][c]
	}
	return sum
}

// SecurityBytes returns the security-metadata bytes moved on a tier.
func (tr *Traffic) SecurityBytes(t Tier) uint64 {
	var sum uint64
	for _, c := range SecurityClasses {
		sum += tr.bytes[t][c]
	}
	return sum
}

// TotalSecurityBytes returns security-metadata bytes across both tiers.
func (tr *Traffic) TotalSecurityBytes() uint64 {
	return tr.SecurityBytes(Device) + tr.SecurityBytes(CXL)
}

// Total returns all bytes across tiers and classes.
func (tr *Traffic) Total() uint64 { return tr.TierTotal(Device) + tr.TierTotal(CXL) }

// Ops counts security and migration operations.
type Ops struct {
	Encryptions      uint64 // OTP applications on writes / re-encryptions
	Decryptions      uint64
	ReEncryptions    uint64 // re-encryptions caused purely by data relocation
	MACComputes      uint64
	MACVerifies      uint64
	BMTVerifies      uint64
	BMTUpdates       uint64
	CounterOverflows uint64

	PagesMigratedIn      uint64 // CXL -> device
	PagesEvicted         uint64 // device -> CXL
	ChunksWrittenBack    uint64
	ChunksMigrated       uint64
	MACFetchesLazy       uint64 // fetch-on-access MAC sector reads
	MappingCacheHits     uint64
	MappingCacheMisses   uint64
	MappingInvalidations uint64 // directed invalidation messages sent to GPC mapping caches

	// Fault-model activity; all zero in a fault-free run.
	FaultsTransient       uint64 // transient link faults injected
	FaultsPoison          uint64 // uncorrectable media errors injected
	FaultsStuckBit        uint64 // stuck-at media bits injected
	Retries               uint64 // transient-fault retries issued
	RetryBackoffCycles    uint64 // simulated cycles spent backing off
	TransparentRecoveries uint64 // frame quarantines with no data loss
	FramesQuarantined     uint64 // device frames retired
	ChunksPoisoned        uint64 // home chunks quarantined
	PagesPinned           uint64 // pages pinned to home-tier access

	// Checkpoint-journal activity; all zero when no incremental
	// checkpoints are taken.
	Checkpoints          uint64 // checkpoint epochs committed
	CheckpointPages      uint64 // dirty pages journaled across all epochs
	CheckpointWritebacks uint64 // dirty resident chunks collapsed home pre-journal
	CheckpointBytes      uint64 // framed journal bytes written
	CheckpointCycles     uint64 // simulated cycles charged to persistence

	// CXL link degradation activity; all zero when no link model is
	// attached.
	LinkFlaps          uint64 // link state transitions observed
	LinkDownRefusals   uint64 // home transfers refused by a down link
	LinkFastFails      uint64 // home transfers fast-failed by the open breaker
	BreakerOpens       uint64 // circuit-breaker closed/half-open -> open transitions
	BreakerCloses      uint64 // circuit-breaker -> closed recoveries
	LinkLatencyCycles  uint64 // brownout latency surcharge, simulated cycles
	WritebacksQueued   uint64 // evictions parked on the dirty-writeback queue
	WritebacksDrained  uint64 // parked writebacks drained back home
	WritebacksDropped  uint64 // evictions refused by a full queue
	WritebackQueuePeak uint64 // queue depth high-water mark

	// Traffic-service activity (salus-serve), per client class; all zero
	// when no service ran.
	Serve [NumServeClasses]ServeOps

	// Per-tenant pool activity (internal/tenant); empty when no tenant
	// pool ran.
	Tenants []TenantOps

	// Live-migration activity (internal/migrate); empty when no tenant
	// migrated.
	Migrates []MigrateOps
}

// HasFaults reports whether any fault-model activity was recorded. Every
// fault counter participates — including the trailing backoff/recovery
// categories — so a run whose only activity is in a trailing category
// still renders its faults line and the columns stay comparable across
// runs.
func (o *Ops) HasFaults() bool {
	return o.FaultsTransient != 0 || o.FaultsPoison != 0 || o.FaultsStuckBit != 0 ||
		o.Retries != 0 || o.RetryBackoffCycles != 0 || o.TransparentRecoveries != 0 ||
		o.FramesQuarantined != 0 || o.ChunksPoisoned != 0 || o.PagesPinned != 0
}

// HasLink reports whether any link-degradation activity was recorded.
func (o *Ops) HasLink() bool {
	return o.LinkFlaps != 0 || o.LinkDownRefusals != 0 || o.LinkFastFails != 0 ||
		o.BreakerOpens != 0 || o.BreakerCloses != 0 || o.LinkLatencyCycles != 0 ||
		o.WritebacksQueued != 0 || o.WritebacksDrained != 0 || o.WritebacksDropped != 0 ||
		o.WritebackQueuePeak != 0
}

// HasCheckpoints reports whether any checkpoint-journal activity was
// recorded.
func (o *Ops) HasCheckpoints() bool {
	return o.Checkpoints != 0 || o.CheckpointPages != 0 || o.CheckpointBytes != 0
}

// HasServe reports whether any traffic-service activity was recorded.
// Every ServeOps field participates, mirroring HasFaults' discipline, so
// a run whose only activity is a trailing category still renders its
// serve lines.
func (o *Ops) HasServe() bool {
	for c := range o.Serve {
		s := &o.Serve[c]
		if s.Served != 0 || s.Shed != 0 || s.Deadline != 0 || s.Overload != 0 ||
			s.Refused != 0 || s.Retries != 0 || s.Ambiguous != 0 {
			return true
		}
	}
	return false
}

// Run is the full measurement record of one simulation.
type Run struct {
	Workload string
	Model    string

	Cycles       uint64
	Instructions uint64
	MemRequests  uint64

	Traffic Traffic
	Ops     Ops

	// BusyCycles per tier: cycles the tier's servers spent serving, used
	// for bandwidth-utilisation figures.
	DeviceBusyCycles uint64
	CXLBusyCycles    uint64

	// CacheHitRates holds metadata-cache sector hit rates (0..1) keyed by
	// "<side>.<class>", when the security engine reports them.
	CacheHitRates map[string]float64
}

// IPC returns instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SecurityTrafficShare returns security bytes / total bytes on a tier.
func (r *Run) SecurityTrafficShare(t Tier) float64 {
	tot := r.Traffic.TierTotal(t)
	if tot == 0 {
		return 0
	}
	return float64(r.Traffic.SecurityBytes(t)) / float64(tot)
}

// String renders a compact single-run summary.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s model=%s cycles=%d instructions=%d ipc=%.4f\n",
		r.Workload, r.Model, r.Cycles, r.Instructions, r.IPC())
	for t := Tier(0); t < numTiers; t++ {
		fmt.Fprintf(&b, "  %-6s total=%dB security=%dB", t, r.Traffic.TierTotal(t), r.Traffic.SecurityBytes(t))
		for c := Class(0); c < numClasses; c++ {
			fmt.Fprintf(&b, " %s=%dB", c, r.Traffic.Bytes(t, c))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  migrations in=%d evictions=%d chunksBack=%d reenc=%d lazyMAC=%d\n",
		r.Ops.PagesMigratedIn, r.Ops.PagesEvicted, r.Ops.ChunksWrittenBack,
		r.Ops.ReEncryptions, r.Ops.MACFetchesLazy)
	if r.Ops.HasFaults() {
		fmt.Fprintf(&b, "  faults transient=%d poison=%d stuckBit=%d retries=%d backoff=%d recovered=%d quarantinedFrames=%d poisonedChunks=%d pinnedPages=%d\n",
			r.Ops.FaultsTransient, r.Ops.FaultsPoison, r.Ops.FaultsStuckBit,
			r.Ops.Retries, r.Ops.RetryBackoffCycles, r.Ops.TransparentRecoveries,
			r.Ops.FramesQuarantined, r.Ops.ChunksPoisoned, r.Ops.PagesPinned)
	}
	if r.Ops.HasLink() {
		fmt.Fprintf(&b, "  link flaps=%d downRefusals=%d fastFails=%d breakerOpens=%d breakerCloses=%d latencyCycles=%d wbQueued=%d wbDrained=%d wbDropped=%d wbPeak=%d\n",
			r.Ops.LinkFlaps, r.Ops.LinkDownRefusals, r.Ops.LinkFastFails,
			r.Ops.BreakerOpens, r.Ops.BreakerCloses, r.Ops.LinkLatencyCycles,
			r.Ops.WritebacksQueued, r.Ops.WritebacksDrained, r.Ops.WritebacksDropped,
			r.Ops.WritebackQueuePeak)
	}
	if r.Ops.HasCheckpoints() {
		perEpoch := 0.0
		if r.Ops.Checkpoints > 0 {
			perEpoch = float64(r.Ops.CheckpointBytes) / float64(r.Ops.Checkpoints)
		}
		fmt.Fprintf(&b, "  checkpoints epochs=%d pages=%d writebacks=%d journalBytes=%d (%.0fB/epoch) cycles=%d\n",
			r.Ops.Checkpoints, r.Ops.CheckpointPages, r.Ops.CheckpointWritebacks,
			r.Ops.CheckpointBytes, perEpoch, r.Ops.CheckpointCycles)
	}
	if r.Ops.HasServe() {
		// One line per class, every class every time: the column set is
		// part of the stable-output contract, like the faults line.
		for c := ServeClass(0); c < NumServeClasses; c++ {
			s := &r.Ops.Serve[c]
			fmt.Fprintf(&b, "  serve class=%s served=%d shed=%d deadline=%d overload=%d refused=%d retries=%d ambiguous=%d\n",
				c, s.Served, s.Shed, s.Deadline, s.Overload, s.Refused, s.Retries, s.Ambiguous)
		}
	}
	if r.Ops.HasTenants() {
		// One line per tenant, every column every time: the column set is
		// part of the stable-output contract, like the serve lines.
		for i := range r.Ops.Tenants {
			tn := &r.Ops.Tenants[i]
			name := tn.Name
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(&b, "  tenant id=%s reads=%d writes=%d denied=%d quota=%d integrity=%d faults=%d ckpts=%d recovers=%d\n",
				name, tn.Reads, tn.Writes, tn.Denied, tn.Quota, tn.Integrity, tn.Faults, tn.Checkpoints, tn.Recovers)
		}
	}
	if r.Ops.HasMigrates() {
		// One line per migration, every column every time, like the
		// tenant lines.
		for i := range r.Ops.Migrates {
			m := &r.Ops.Migrates[i]
			name := m.Tenant
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(&b, "  migrate tenant=%s rounds=%d sent=%d skipped=%d bytes=%d retries=%d resumes=%d torn=%d replay=%d attest=%d fresh=%d\n",
				name, m.Rounds, m.ChunksSent, m.ChunksSkipped, m.BytesStreamed,
				m.Retries, m.Resumes, m.Torn, m.Replay, m.Attest, m.Fresh)
		}
	}
	if len(r.CacheHitRates) > 0 {
		keys := make([]string, 0, len(r.CacheHitRates))
		for k := range r.CacheHitRates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  metadata cache hit rates:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.2f", k, r.CacheHitRates[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a simple column-aligned text table used by the bench harness.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Rows may be ragged —
// shorter or longer than the header — and empty; extra columns render
// under an empty header cell rather than panicking.
func (t *Table) String() string {
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SortRowsByFirstColumn orders rows lexicographically by their first cell,
// keeping output stable across map iteration order. Empty rows sort first.
func (t *Table) SortRowsByFirstColumn() {
	key := func(row []string) string {
		if len(row) == 0 {
			return ""
		}
		return row[0]
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return key(t.Rows[i]) < key(t.Rows[j]) })
}
