// Package jbb reproduces the SPEC JBB2000 case study of the paper's
// Section 3.2.1: a three-tier order-processing benchmark (Company ->
// Warehouse -> District -> Customer/Order) whose orders live in per-district
// longBTree order tables. It contains, switchable by configuration, the
// three real defects the paper diagnoses with GC assertions:
//
//  1. The lastOrder leak: destroying an Order does not clear the
//     Customer.lastOrder back-reference, so destroyed orders stay reachable
//     (found with assert-dead on Entity.destroy, and more naturally with
//     assert-ownedby on the order table).
//  2. The orderTable leak (first reported by Jump and McKinley's Cork):
//     delivered orders are never removed from the district's orderTable.
//     assert-dead at the end of DeliveryTransaction.process reports the
//     full Company -> ... -> longBTree -> ... -> Order path (Figure 1).
//  3. The oldCompany drag: the main loop destroys the previous Company
//     while a local variable still references it, so the whole structure
//     survives one extra cycle (also visible with assert-instances on
//     Company).
//
// The Address variant of leak 1 is included too: Addresses are referenced
// by both Orders and Customers, and the paper notes the Customer-side
// reference cannot be repaired for lack of a back pointer.
package jbb

import (
	"repro/internal/collections"
	"repro/internal/core"
)

// Config selects the benchmark shape and which defects are active.
type Config struct {
	Warehouses int // default 1
	Districts  int // per warehouse, default 10
	Customers  int // per warehouse, default 60

	// LeakOrderTable leaves delivered orders in the orderTable (defect 2).
	LeakOrderTable bool
	// ClearLastOrder repairs defect 1 (the paper's fix: null the
	// Customer.lastOrder reference when the order is destroyed).
	ClearLastOrder bool
	// ClearOldCompany repairs defect 3 (null the oldCompany local after
	// destroying it).
	ClearOldCompany bool

	// Assertion instrumentation, as the paper added it.
	AssertDeadOnDestroy    bool // Entity.destroy -> assert-dead
	AssertOwnedByOnAdd     bool // District.addOrder -> assert-ownedby
	AssertCompanySingleton bool // assert-instances(Company, 1)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 1
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.Customers == 0 {
		c.Customers = 60
	}
	return c
}

// Benchmark is one configured instance bound to a runtime.
type Benchmark struct {
	rt  *core.Runtime
	th  *core.Thread
	kit *collections.Kit
	cfg Config

	// Classes (named to make Figure-1 paths read like the paper's).
	Company   *core.Class
	Warehouse *core.Class
	District  *core.Class
	Customer  *core.Class
	Order     *core.Class
	Orderline *core.Class
	Address   *core.Class

	// Field offsets.
	coWarehouses uint16
	whDistricts  uint16
	whCustomers  uint16
	diTable      uint16
	diID         uint16
	cuLastOrder  uint16
	cuAddr       uint16
	cuID         uint16
	orCustomer   uint16
	orLines      uint16
	orAddr       uint16
	orID         uint16
	olItem       uint16
	olQty        uint16
	adStreet     uint16

	company *core.Global
	// oldCompany models the main loop's local variable that drags the
	// previous Company (defect 3): frame slot 0 of a dedicated frame.
	mainFrame core.Frame

	nextOrderID int64
	rng         uint64

	// Counters mirroring the paper's reported assertion volumes.
	OrdersCreated   int64
	OrdersDelivered int64
}

// New defines the benchmark classes on rt and builds the initial Company.
func New(rt *core.Runtime, cfg Config) *Benchmark {
	b := &Benchmark{
		rt:  rt,
		th:  rt.MainThread(),
		kit: collections.NewKit(rt),
		cfg: cfg.withDefaults(),
		rng: 0x9e3779b97f4a7c15,
	}

	b.Address = rt.DefineClass("Address", core.RefField("street"))
	b.adStreet = b.Address.MustFieldIndex("street")

	b.Orderline = rt.DefineClass("Orderline",
		core.DataField("item"), core.DataField("qty"))
	b.olItem = b.Orderline.MustFieldIndex("item")
	b.olQty = b.Orderline.MustFieldIndex("qty")

	b.Order = rt.DefineClass("Order",
		core.RefField("customer"), core.RefField("lines"),
		core.RefField("addr"), core.DataField("id"))
	b.orCustomer = b.Order.MustFieldIndex("customer")
	b.orLines = b.Order.MustFieldIndex("lines")
	b.orAddr = b.Order.MustFieldIndex("addr")
	b.orID = b.Order.MustFieldIndex("id")

	b.Customer = rt.DefineClass("Customer",
		core.RefField("lastOrder"), core.RefField("addr"), core.DataField("id"))
	b.cuLastOrder = b.Customer.MustFieldIndex("lastOrder")
	b.cuAddr = b.Customer.MustFieldIndex("addr")
	b.cuID = b.Customer.MustFieldIndex("id")

	b.District = rt.DefineClass("District",
		core.RefField("orderTable"), core.DataField("id"))
	b.diTable = b.District.MustFieldIndex("orderTable")
	b.diID = b.District.MustFieldIndex("id")

	b.Warehouse = rt.DefineClass("Warehouse",
		core.RefField("districts"), core.RefField("customers"))
	b.whDistricts = b.Warehouse.MustFieldIndex("districts")
	b.whCustomers = b.Warehouse.MustFieldIndex("customers")

	b.Company = rt.DefineClass("Company", core.RefField("warehouses"))
	b.coWarehouses = b.Company.MustFieldIndex("warehouses")

	b.company = rt.AddGlobal("jbb.company")
	b.mainFrame = b.th.PushFrame(1)

	if b.cfg.AssertCompanySingleton {
		must(rt.AssertInstances(b.Company, 1))
	}

	b.company.Set(b.buildCompany())
	return b
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// rand is a small deterministic PRNG (xorshift*).
func (b *Benchmark) rand(n int) int {
	b.rng ^= b.rng >> 12
	b.rng ^= b.rng << 25
	b.rng ^= b.rng >> 27
	return int((b.rng * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
}

// buildCompany allocates the Company -> Warehouse -> District/Customer
// structure.
func (b *Benchmark) buildCompany() core.Ref {
	rt, th := b.rt, b.th
	f := th.PushFrame(4)
	defer th.PopFrame()

	co := th.New(b.Company)
	f.SetLocal(0, co)
	whs := th.NewRefArray(b.cfg.Warehouses)
	rt.SetRef(f.Local(0), b.coWarehouses, whs)

	for wi := 0; wi < b.cfg.Warehouses; wi++ {
		wh := th.New(b.Warehouse)
		f.SetLocal(1, wh)
		districts := th.NewRefArray(b.cfg.Districts)
		rt.SetRef(f.Local(1), b.whDistricts, districts)
		customers := th.NewRefArray(b.cfg.Customers)
		rt.SetRef(f.Local(1), b.whCustomers, customers)

		for di := 0; di < b.cfg.Districts; di++ {
			d := th.New(b.District)
			f.SetLocal(2, d)
			rt.SetRef(f.Local(2), b.diTable, b.kit.NewTree(f, 3))
			f.SetLocal(3, core.Nil) // the district holds the tree now
			rt.SetInt(f.Local(2), b.diID, int64(di))
			districts = rt.GetRef(f.Local(1), b.whDistricts)
			rt.ArrSetRef(districts, di, f.Local(2))
		}
		for ci := 0; ci < b.cfg.Customers; ci++ {
			cu := th.New(b.Customer)
			f.SetLocal(2, cu)
			addr := b.newAddress()
			rt.SetRef(f.Local(2), b.cuAddr, addr)
			rt.SetInt(f.Local(2), b.cuID, int64(ci))
			customers = rt.GetRef(f.Local(1), b.whCustomers)
			rt.ArrSetRef(customers, ci, f.Local(2))
		}
		whs = rt.GetRef(f.Local(0), b.coWarehouses)
		rt.ArrSetRef(whs, wi, f.Local(1))
	}
	return f.Local(0)
}

// newAddress allocates an Address with a street string.
func (b *Benchmark) newAddress() core.Ref {
	f := b.th.PushFrame(2)
	defer b.th.PopFrame()
	street := b.th.NewString("1400 Commerce Way")
	f.SetLocal(0, street)
	a := b.th.New(b.Address)
	b.rt.SetRef(a, b.adStreet, f.Local(0))
	return a
}

// district returns district di of warehouse wi.
func (b *Benchmark) district(wi, di int) core.Ref {
	whs := b.rt.GetRef(b.company.Get(), b.coWarehouses)
	wh := b.rt.ArrGetRef(whs, wi)
	return b.rt.ArrGetRef(b.rt.GetRef(wh, b.whDistricts), di)
}

// customer returns customer ci of warehouse wi.
func (b *Benchmark) customer(wi, ci int) core.Ref {
	whs := b.rt.GetRef(b.company.Get(), b.coWarehouses)
	wh := b.rt.ArrGetRef(whs, wi)
	return b.rt.ArrGetRef(b.rt.GetRef(wh, b.whCustomers), ci)
}

// Runtime returns the underlying runtime (tests and the harness inspect
// violations and stats through it).
func (b *Benchmark) Runtime() *core.Runtime { return b.rt }
