package jbb

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

const testHeap = 1 << 19

// tortureBuild is set in the gctorture build (torture_test.go).
var tortureBuild bool

func newBench(t *testing.T, cfg Config) *Benchmark {
	t.Helper()
	rt := core.New(core.Config{HeapWords: testHeap, Mode: core.Infrastructure})
	return New(rt, cfg)
}

func TestBenchmarkRunsClean(t *testing.T) {
	// All defects repaired, full instrumentation: no violations.
	b := newBench(t, Config{
		ClearLastOrder:         true,
		ClearOldCompany:        true,
		AssertDeadOnDestroy:    true,
		AssertOwnedByOnAdd:     true,
		AssertCompanySingleton: true,
	})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Runtime().Violations() {
		t.Errorf("unexpected violation:\n%s", v.Format())
	}
	if b.OrdersCreated == 0 || b.OrdersDelivered == 0 {
		t.Fatalf("transactions did not run: created=%d delivered=%d",
			b.OrdersCreated, b.OrdersDelivered)
	}
}

func TestLastOrderLeakFoundByAssertDead(t *testing.T) {
	// Defect 1 live: destroyed Orders stay reachable through
	// Customer.lastOrder; assert-dead reports them with a path through
	// Customer (the paper's first finding).
	b := newBench(t, Config{AssertDeadOnDestroy: true})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	vs := b.Runtime().Violations()
	var hit *report.Violation
	for _, v := range vs {
		if v.Kind == report.DeadReachable && v.Class == "Order" {
			hit = v
			break
		}
	}
	if hit == nil {
		t.Fatal("no DeadReachable Order violation found")
	}
	if !pathContains(hit, "Customer") {
		t.Errorf("path does not run through Customer:\n%s", hit.Format())
	}
}

func TestLastOrderLeakRepaired(t *testing.T) {
	// The paper's repair: clear Customer.lastOrder in destroy().
	b := newBench(t, Config{AssertDeadOnDestroy: true, ClearLastOrder: true})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Runtime().Violations() {
		if v.Kind == report.DeadReachable && v.Class == "Order" {
			t.Errorf("repaired program still leaks:\n%s", v.Format())
		}
	}
}

func TestOrderTableLeakFigure1Path(t *testing.T) {
	// Defect 2 (Jump & McKinley's orderTable leak): delivered orders stay
	// in the longBTree; assert-dead reports the paper's Figure 1 path
	// Company -> ... -> District -> longBTree -> longBTreeNode -> ... -> Order.
	b := newBench(t, Config{
		LeakOrderTable:      true,
		ClearLastOrder:      true, // isolate defect 2
		AssertDeadOnDestroy: true,
	})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	var hit *report.Violation
	for _, v := range b.Runtime().Violations() {
		if v.Kind == report.DeadReachable && v.Class == "Order" && pathContains(v, "longBTree") {
			hit = v
			break
		}
	}
	if hit == nil {
		t.Fatal("no Figure-1-style violation found")
	}
	// The full chain of the paper's Figure 1.
	text := hit.Format()
	for _, cls := range []string{"Company", "Warehouse", "District", "longBTree", "longBTreeNode", "Order"} {
		if !strings.Contains(text, cls) {
			t.Errorf("Figure 1 path missing %s:\n%s", cls, text)
		}
	}
}

func TestLastOrderLeakFoundByAssertOwnedBy(t *testing.T) {
	// The paper's preferred diagnosis: assert each Order owned by its
	// orderTable at District.addOrder. Orders removed from the table but
	// kept by Customer.lastOrder become unowned ownees — "the user does
	// not need to know when an object should be dead".
	b := newBench(t, Config{AssertOwnedByOnAdd: true})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	var hit *report.Violation
	for _, v := range b.Runtime().Violations() {
		if v.Kind == report.UnownedOwnee && v.Class == "Order" {
			hit = v
			break
		}
		if v.Kind == report.ImproperOwnership {
			t.Errorf("spurious improper-use warning:\n%s", v.Format())
		}
	}
	if hit == nil {
		t.Fatal("no UnownedOwnee Order violation found")
	}
	if hit.Owner != "longBTree" {
		t.Errorf("owner = %q, want longBTree", hit.Owner)
	}
	if !pathContains(hit, "Customer") {
		t.Errorf("path does not run through Customer:\n%s", hit.Format())
	}
}

func TestAssertOwnedByCleanWhenRepaired(t *testing.T) {
	b := newBench(t, Config{AssertOwnedByOnAdd: true, ClearLastOrder: true})
	b.RunTransactions(500)
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Runtime().Violations() {
		t.Errorf("repaired program still violates ownership:\n%s", v.Format())
	}
}

func TestOldCompanyDragFoundByAssertInstances(t *testing.T) {
	// Defect 3: the previous Company is dragged by the oldCompany local.
	// The paper: "this problem could have been found by using
	// assert-instances on the Company type".
	b := newBench(t, Config{AssertCompanySingleton: true, ClearLastOrder: true})
	b.RunTransactions(100)
	b.ReplaceCompany()
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	var hit *report.Violation
	for _, v := range b.Runtime().Violations() {
		if v.Kind == report.TooManyInstances && v.Class == "Company" {
			hit = v
		}
	}
	if hit == nil {
		t.Fatal("company drag not detected")
	}
	if hit.Count != 2 || hit.Limit != 1 {
		t.Errorf("count=%d limit=%d, want 2/1", hit.Count, hit.Limit)
	}
}

func TestOldCompanyDragRepaired(t *testing.T) {
	b := newBench(t, Config{
		AssertCompanySingleton: true,
		ClearLastOrder:         true,
		ClearOldCompany:        true,
	})
	b.RunTransactions(100)
	b.ReplaceCompany()
	if err := b.Runtime().GC(); err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Runtime().Violations() {
		if v.Kind == report.TooManyInstances {
			t.Errorf("repaired drag still detected:\n%s", v.Format())
		}
	}
}

func TestOldCompanyReclaimedOnFollowingIteration(t *testing.T) {
	// The paper notes the drag is not a leak: the object referenced by
	// oldCompany is reclaimed on the following iteration when the local
	// is overwritten.
	b := newBench(t, Config{ClearLastOrder: true})
	rt := b.Runtime()
	b.RunTransactions(50)
	b.ReplaceCompany()
	rt.GC()
	two := rt.AllocatedInstanceCount(b.Company)
	if two != 2 {
		t.Fatalf("after one replacement: %d companies, want 2 (drag)", two)
	}
	b.ReplaceCompany() // overwrites oldCompany
	rt.GC()
	if got := rt.AllocatedInstanceCount(b.Company); got != 2 {
		t.Errorf("after second replacement: %d companies, want 2", got)
	}
}

func TestAssertionVolumes(t *testing.T) {
	// Sanity-check the counters the paper reports (for pseudojbb: one
	// assert-instances and tens of thousands of assert-ownedby calls).
	b := newBench(t, Config{
		AssertOwnedByOnAdd:     true,
		AssertCompanySingleton: true,
		ClearLastOrder:         true,
	})
	b.RunTransactions(1000)
	st := b.Runtime().Stats()
	if st.Asserts.OwnedByAsserts != uint64(b.OrdersCreated) {
		t.Errorf("OwnedByAsserts = %d, want %d", st.Asserts.OwnedByAsserts, b.OrdersCreated)
	}
	if st.Asserts.InstanceAsserts != 1 {
		t.Errorf("InstanceAsserts = %d, want 1", st.Asserts.InstanceAsserts)
	}
}

func pathContains(v *report.Violation, class string) bool {
	for _, e := range v.Path {
		if e.Class == class {
			return true
		}
	}
	return false
}

// TestCountedWorkPinned pins the heap work of a fixed run: the jbb_batch
// configuration (4 warehouses, defects repaired, assert-ownedby and
// assert-instances on, a 131072-word stop-the-world heap), the standard
// transaction mix, a full drain and a final collection. The order tables'
// speed may change; what they allocate, what the collector marks, scans and
// frees and what the ownership check visits may not, so every figure here is
// exact. The marked words and scanned refs move if a popped frame's slot is
// still scanned or a live slot is skipped.
func TestCountedWorkPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the pinned figures need the full run, too slow for a side trace per allocation")
	}
	rt := core.New(core.Config{HeapWords: 131072, Mode: core.Infrastructure})
	b := New(rt, Config{
		Warehouses:             4,
		ClearLastOrder:         true,
		ClearOldCompany:        true,
		AssertOwnedByOnAdd:     true,
		AssertCompanySingleton: true,
	})
	b.RunTransactions(20000)
	delivered := b.OrdersDelivered
	b.DrainOrders()
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"orders created", uint64(b.OrdersCreated), 20000},
		{"orders delivered by the mix", uint64(delivered), 18839},
		{"orders delivered after the drain", uint64(b.OrdersDelivered), 20000},
		{"allocations", st.Heap.TotalAllocs, 209343},
		{"collections", st.GC.Collections, 15},
		{"words freed", st.GC.FreedWords, 1241086},
		{"words marked", st.GC.MarkedWords, 698534},
		{"refs scanned", st.GC.Trace.RefsScanned, 175517},
		{"ownees checked", st.GC.Trace.OwneesChecked, 13415},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if vs := rt.Violations(); len(vs) != 0 {
		t.Errorf("%d violations on the repaired benchmark, first:\n%s", len(vs), vs[0].Format())
	}
}

// newBatchBench builds the jbb_batch configuration of TestCountedWorkPinned.
func newBatchBench() *Benchmark {
	rt := core.New(core.Config{HeapWords: 131072, Mode: core.Infrastructure})
	return New(rt, Config{
		Warehouses:             4,
		ClearLastOrder:         true,
		ClearOldCompany:        true,
		AssertOwnedByOnAdd:     true,
		AssertCompanySingleton: true,
	})
}

// runBatch runs one jbb_batch operation: 100 NewOrder, 100 Payment and 10
// Delivery(12) transactions.
func runBatch(b *Benchmark) {
	for range 100 {
		b.NewOrderTransaction()
	}
	for range 100 {
		b.PaymentTransaction()
	}
	for range 10 {
		b.DeliveryTransaction(12)
	}
}

// BenchmarkBatch measures one jbb_batch operation per iteration, with its Go
// allocations.
func BenchmarkBatch(b *testing.B) {
	bm := newBatchBench()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		runBatch(bm)
	}
}

// TestBatchAllocatesNothing: once the slot stacks and the collector's
// buffers have grown, a jbb_batch operation — transactions, frames and the
// collections they trigger — makes no Go allocation.
func TestBatchAllocatesNothing(t *testing.T) {
	if tortureBuild {
		t.Skip("the gctorture build's side trace allocates")
	}
	b := newBatchBench()
	batch := func() { runBatch(b) }
	batch()
	if got := testing.AllocsPerRun(10, batch); got != 0 {
		t.Errorf("a jbb_batch operation allocates %v times, want 0", got)
	}
}
