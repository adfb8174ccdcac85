// Orderleak: finding a memory leak with assert-ownedby, the way the paper
// diagnoses SPEC JBB2000 (Section 3.2.1).
//
// An order-processing service keeps Orders in a work queue and also lets
// each Customer remember its most recent order. When an order is fulfilled
// it is removed from the queue — but nothing clears the customer's
// back-reference, so fulfilled orders leak.
//
// Instead of knowing *when* each order should die (assert-dead), we state
// the structural rule: every order is owned by the queue. The collector
// then flags any order that outlives its place in the queue, and prints
// the path through the Customer that pins it.
//
//	go run ./examples/orderleak
package main

import (
	"fmt"
	"os"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	rt := core.New(core.Config{
		HeapWords: 1 << 17,
		Mode:      core.Infrastructure,
		Handler:   &report.Logger{W: os.Stdout},
	})
	kit := collections.NewKit(rt)
	th := rt.MainThread()

	customer := rt.DefineClass("Customer", core.RefField("lastOrder"))
	order := rt.DefineClass("Order",
		core.RefField("customer"), core.DataField("id"))
	lastOrder := customer.MustFieldIndex("lastOrder")
	orderCustomer := order.MustFieldIndex("customer")
	orderID := order.MustFieldIndex("id")

	// The work queue (a managed B-tree keyed by order id) and a customer.
	f := th.PushFrame(1)
	queue := kit.NewTree(f, 0)
	rt.AddGlobal("queue").Set(queue)
	th.PopFrame()
	cust := th.New(customer)
	rt.AddGlobal("customer").Set(cust)

	// Place ten orders; the queue owns each one.
	for id := int64(0); id < 10; id++ {
		o := th.New(order)
		rt.SetInt(o, orderID, id)
		rt.SetRef(o, orderCustomer, cust)
		kit.TreePut(th, queue, id, o)
		rt.SetRef(cust, lastOrder, o) // customer remembers the order

		if err := rt.AssertOwnedBy(queue, o); err != nil {
			panic(err)
		}
	}

	// Fulfill every order: remove from the queue. The bug: customer's
	// lastOrder still points at order 9.
	fmt.Println("fulfilling all ten orders...")
	for id := int64(0); id < 10; id++ {
		kit.TreeRemove(queue, id)
	}

	// The collection reports exactly one unowned order — the one the
	// customer still references — with the path that proves it.
	if err := rt.GC(); err != nil {
		panic(err)
	}

	// The repair: clear the back-reference when fulfilling.
	fmt.Println("applying the fix (clear lastOrder) and collecting again...")
	rt.SetRef(cust, lastOrder, core.Nil)
	if err := rt.GC(); err != nil {
		panic(err)
	}

	st := rt.Stats()
	fmt.Printf("done: %d violation(s); %d ownee(s) still tracked\n",
		st.Asserts.Violations, st.Asserts.OwneesLive)
}
