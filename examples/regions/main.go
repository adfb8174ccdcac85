// Regions: checking that request handling is memory-stable with
// start-region / assert-alldead (Section 2.3.2 of the paper).
//
// A toy server handles connections; everything allocated while servicing a
// connection should be released when the connection closes. We bracket the
// handler with a region: if any allocation from inside the bracket
// survives the next collection, the collector reports it.
//
// The buggy handler appends each request's session to a global audit list;
// the fixed handler logs only the session id.
//
//	go run ./examples/regions
package main

import (
	"fmt"
	"os"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/report"
)

type server struct {
	rt      *core.Runtime
	th      *core.Thread
	kit     *collections.Kit
	session *core.Class
	sID     uint16
	sBuf    uint16
	audit   core.Ref // the leak: a global list of sessions
}

// handle services one connection inside a region bracket.
func (s *server) handle(id int64, leaky bool) {
	if err := s.th.StartRegion(); err != nil {
		panic(err)
	}

	f := s.th.PushFrame(2)
	// Per-connection allocations: a session object and an I/O buffer.
	sess := s.th.New(s.session)
	f.SetLocal(0, sess)
	s.rt.SetInt(sess, s.sID, id)
	buf := s.th.NewDataArray(256)
	s.rt.SetRef(f.Local(0), s.sBuf, buf)

	// "Process" the request.
	for i := 0; i < 256; i++ {
		s.rt.ArrSetData(buf, i, uint64(id)+uint64(i))
	}

	if leaky {
		// Bug: the audit trail keeps the whole session alive.
		s.kit.ListAdd(s.th, s.audit, f.Local(0))
	}
	s.th.PopFrame()

	// Everything allocated since StartRegion must now be garbage.
	if err := s.th.AssertAllDead(); err != nil {
		panic(err)
	}
}

func main() {
	rt := core.New(core.Config{
		HeapWords: 1 << 16,
		Mode:      core.Infrastructure,
		Handler:   &report.Logger{W: os.Stdout},
	})
	kit := collections.NewKit(rt)
	s := &server{rt: rt, th: rt.MainThread(), kit: kit}
	s.session = rt.DefineClass("Session",
		core.DataField("id"), core.RefField("buf"))
	s.sID = s.session.MustFieldIndex("id")
	s.sBuf = s.session.MustFieldIndex("buf")
	f := s.th.PushFrame(1)
	s.audit = kit.NewList(f, 0)
	rt.AddGlobal("audit").Set(s.audit)
	s.th.PopFrame()

	fmt.Println("serving 5 connections with the leaky handler...")
	for id := int64(0); id < 5; id++ {
		s.handle(id, true)
	}
	if err := rt.GC(); err != nil {
		panic(err)
	}
	leakyViolations := rt.Stats().Asserts.Violations

	fmt.Println("serving 5 connections with the fixed handler...")
	// Drop the sessions leaked by the buggy phase: their dead bits stay
	// set, so they would be re-reported at every collection for as long
	// as the audit list pins them.
	kit.ListClear(s.audit)
	rt.ResetViolations()
	for id := int64(5); id < 10; id++ {
		s.handle(id, false)
	}
	if err := rt.GC(); err != nil {
		panic(err)
	}

	fmt.Printf("leaky handler: %d region violations; fixed handler: %d\n",
		leakyViolations, len(rt.Violations()))
}
