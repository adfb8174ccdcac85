package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/jbb"
	"repro/internal/telemetry"
)

// jbb_batch: pseudojbb with its three defects repaired and the paper's
// assert-ownedby + assert-instances instrumentation, on one mutator thread
// and a stop-the-world MarkSweep runtime sized at about twice the live set.
// One op is a batch of 100 NewOrder, 100 Payment and 10 Delivery(12)
// transactions in an order the seed permutes per batch.

const (
	jbbHeapWords  = 131072
	jbbNewOrders  = 100
	jbbPayments   = 100
	jbbDeliveries = 10
)

type jbbBatch struct {
	rt      *core.Runtime
	b       *jbb.Benchmark
	rng     rng
	plan    [jbbNewOrders + jbbPayments + jbbDeliveries]spanName
	batches int64
}

func buildJBBBatch(seed uint64, tele *telemetry.Config) instance {
	rt := core.New(core.Config{
		HeapWords: jbbHeapWords,
		Mode:      core.Infrastructure,
		Telemetry: tele,
	})
	w := &jbbBatch{
		rt: rt,
		b: jbb.New(rt, jbb.Config{
			Warehouses:             4,
			ClearLastOrder:         true,
			ClearOldCompany:        true,
			AssertOwnedByOnAdd:     true,
			AssertCompanySingleton: true,
		}),
		rng: newRNG(seed, 0),
	}
	i := 0
	for _, step := range []struct {
		kind spanName
		n    int
	}{{spJBBNewOrder, jbbNewOrders}, {spJBBPayment, jbbPayments}, {spJBBDelivery, jbbDeliveries}} {
		for j := 0; j < step.n; j++ {
			w.plan[i] = step.kind
			i++
		}
	}
	return w
}

func (w *jbbBatch) Runtime() *core.Runtime { return w.rt }

func (w *jbbBatch) Op(_ int, t *clientTrace) (time.Duration, spanName, bool) {
	for i := len(w.plan) - 1; i > 0; i-- {
		j := w.rng.intn(i + 1)
		w.plan[i], w.plan[j] = w.plan[j], w.plan[i]
	}
	start := time.Now()
	for _, kind := range w.plan {
		s := t.now()
		switch kind {
		case spJBBNewOrder:
			w.b.NewOrderTransaction()
		case spJBBPayment:
			w.b.PaymentTransaction()
		default:
			w.b.DeliveryTransaction(12)
		}
		t.add(kind, s)
	}
	w.batches++
	return time.Since(start), spOp, true
}

func (w *jbbBatch) Check() error {
	if want := w.batches * jbbNewOrders; w.b.OrdersCreated != want {
		return fmt.Errorf("jbb_batch: %d orders created, want %d", w.b.OrdersCreated, want)
	}
	if vs := w.rt.Violations(); len(vs) != 0 {
		return fmt.Errorf("jbb_batch: %d violations on the repaired benchmark, first:\n%s", len(vs), vs[0].Format())
	}
	if errs := w.rt.VerifyHeap(); len(errs) != 0 {
		return fmt.Errorf("jbb_batch: heap does not verify: %v", errs[0])
	}
	return nil
}

func (w *jbbBatch) Close() error { return w.rt.Close() }
