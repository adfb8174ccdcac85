package jbb

import "repro/internal/core"

// Transactions, modeled on the SPEC JBB2000 transaction mix the paper
// instruments.

// NewOrderTransaction creates an Order for a random customer, files it in
// a random district's orderTable via District.addOrder, and — as in SPEC
// JBB2000 — records it as the customer's lastOrder. That back-reference is
// defect 1: nothing clears it when the order is destroyed.
func (b *Benchmark) NewOrderTransaction() {
	rt, th := b.rt, b.th
	f := th.PushFrame(3)
	defer th.PopFrame()

	wi := b.rand(b.cfg.Warehouses)
	cu := b.customer(wi, b.rand(b.cfg.Customers))
	f.SetLocal(0, cu)

	o := th.New(b.Order)
	f.SetLocal(1, o)
	lines := th.NewRefArray(5)
	rt.SetRef(f.Local(1), b.orLines, lines)
	for i := 0; i < 5; i++ {
		ol := th.New(b.Orderline)
		rt.SetInt(ol, b.olItem, int64(b.rand(10000)))
		rt.SetInt(ol, b.olQty, int64(b.rand(10)+1))
		lines = rt.GetRef(f.Local(1), b.orLines)
		rt.ArrSetRef(lines, i, ol)
	}
	addr := b.newAddress()
	rt.SetRef(f.Local(1), b.orAddr, addr)
	rt.SetRef(f.Local(1), b.orCustomer, f.Local(0))

	id := b.nextOrderID
	b.nextOrderID++
	rt.SetInt(f.Local(1), b.orID, id)

	// Customer remembers its most recent order (SPEC JBB2000 behavior).
	rt.SetRef(f.Local(0), b.cuLastOrder, f.Local(1))

	b.addOrder(b.district(wi, b.rand(b.cfg.Districts)), id, f.Local(1))
	b.OrdersCreated++
}

// addOrder is District.addOrder: the point the paper instruments with
// assert-ownedby — "each Order added is owned by its orderTable".
func (b *Benchmark) addOrder(district core.Ref, id int64, order core.Ref) {
	table := b.rt.GetRef(district, b.diTable)
	b.kit.TreePut(b.th, table, id, order)
	if b.cfg.AssertOwnedByOnAdd {
		must(b.rt.AssertOwnedBy(table, order))
	}
}

// PaymentTransaction is pure mutator churn: a transient payment record
// against a random customer.
func (b *Benchmark) PaymentTransaction() {
	th := b.th
	f := th.PushFrame(1)
	defer th.PopFrame()
	receipt := th.NewDataArray(12)
	f.SetLocal(0, receipt)
	b.rt.ArrSetData(receipt, 0, uint64(b.rand(1_000_000)))
}

// DeliveryTransaction processes (completes) up to batch oldest orders in
// one district: each processed order is removed from the orderTable —
// unless LeakOrderTable reproduces the Jump & McKinley defect — and then
// destroyed.
//
// destroy() is the point the paper instruments with assert-dead: "the
// programmer must know that the Order object should be dead at the end of
// DeliveryTransaction.process()".
func (b *Benchmark) DeliveryTransaction(batch int) {
	rt, th := b.rt, b.th
	d := b.district(b.rand(b.cfg.Warehouses), b.rand(b.cfg.Districts))
	table := rt.GetRef(d, b.diTable)

	for n := 0; n < batch; n++ {
		// Oldest order = smallest key.
		oldest, order, ok := b.kit.TreeFirst(table)
		if !ok {
			return // table empty
		}
		f := th.PushFrame(1)
		f.SetLocal(0, order)

		if !b.cfg.LeakOrderTable {
			b.kit.TreeRemove(table, oldest)
		}
		b.destroyOrder(f.Local(0))
		th.PopFrame()
		b.OrdersDelivered++
	}
}

// destroyOrder is Order.destroy(): SPEC JBB2000's factory pattern provides
// explicit destructors, which is what makes the assert-dead placement
// possible. Defect 1 lives here: without ClearLastOrder, the customer's
// lastOrder reference survives.
func (b *Benchmark) destroyOrder(order core.Ref) {
	rt := b.rt
	if b.cfg.ClearLastOrder {
		// The paper's repair: each Order has a back reference to its
		// Customer, so the dangling lastOrder can be nulled.
		cu := rt.GetRef(order, b.orCustomer)
		if cu != core.Nil && rt.GetRef(cu, b.cuLastOrder) == order {
			rt.SetRef(cu, b.cuLastOrder, core.Nil)
		}
	}
	if b.cfg.AssertDeadOnDestroy {
		must(rt.AssertDead(order))
		// The paper found the same leak pattern with Address objects —
		// "we were not able to repair it since there is no back
		// reference from Addresses to Customers" — but order-owned
		// addresses do die with their order.
		if addr := rt.GetRef(order, b.orAddr); addr != core.Nil {
			must(rt.AssertDead(addr))
		}
	}
}

// DrainOrders delivers every outstanding order in every district — the
// end-of-run batch delivery that brings the benchmark to a clean steady
// state (used by tests and the leak-detector baseline comparisons).
func (b *Benchmark) DrainOrders() {
	rt := b.rt
	whs := rt.GetRef(b.company.Get(), b.coWarehouses)
	for wi := 0; wi < b.cfg.Warehouses; wi++ {
		wh := rt.ArrGetRef(whs, wi)
		districts := rt.GetRef(wh, b.whDistricts)
		for di := 0; di < b.cfg.Districts; di++ {
			d := rt.ArrGetRef(districts, di)
			table := rt.GetRef(d, b.diTable)
			for {
				oldest, order, ok := b.kit.TreeFirst(table)
				if !ok {
					break
				}
				f := b.th.PushFrame(1)
				f.SetLocal(0, order)
				if !b.cfg.LeakOrderTable {
					b.kit.TreeRemove(table, oldest)
				} else {
					b.th.PopFrame()
					break // leaky variant cannot drain
				}
				b.destroyOrder(f.Local(0))
				b.th.PopFrame()
				b.OrdersDelivered++
			}
		}
	}
}

// ReplaceCompany models the benchmark main loop between measurement points:
// the previous Company is destroyed before the new one is created, while
// the oldCompany local still references it (defect 3, "memory drag").
func (b *Benchmark) ReplaceCompany() {
	// oldCompany := company  (the local variable stays visible for the
	// whole method, i.e. until the next ReplaceCompany).
	b.mainFrame.SetLocal(0, b.company.Get())
	if b.cfg.AssertDeadOnDestroy {
		must(b.rt.AssertDead(b.company.Get()))
	}
	if b.cfg.ClearOldCompany {
		// The paper's repair: "simply setting the variable to null after
		// the Company is destroyed".
		b.mainFrame.SetLocal(0, core.Nil)
	}
	b.company.Set(b.buildCompany())
}

// RunTransactions executes the standard mix: one delivery batch per ten
// new orders, with payment churn in between. The delivery batch slightly
// outpaces order creation so order tables stay bounded at steady state.
func (b *Benchmark) RunTransactions(n int) {
	for i := 0; i < n; i++ {
		b.NewOrderTransaction()
		b.PaymentTransaction()
		if i%10 == 9 {
			b.DeliveryTransaction(12)
		}
	}
}
