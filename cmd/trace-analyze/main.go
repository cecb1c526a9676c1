// Command trace-analyze performs offline analysis of a recorded HyperTap
// exit stream: a .htcs capture (cmd/hypertap -capture) or an incident-bundle
// directory (internal/flight) whose campaign recorded one. It prints a
// summary of the captured activity, then re-judges the stream through the
// fleet auditor plane (experiment.ReplayStream) — offline GOSHD finds guest
// hangs after the fact, event-stream forensics in the Ether tradition the
// paper builds on.
//
// With -chrome-trace it renders the input as Chrome trace-event JSON for
// ui.perfetto.dev: a capture's events on per-VM tracks, or a bundle's flight
// rings and causal spans.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/experiment"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/telemetry"
)

// vmTally is one recorded VM's share of a stream.
type vmTally struct {
	ID     core.VMID
	Name   string
	VCPUs  int
	Events int64
}

// summary is one walk over a capture's records.
type summary struct {
	Version int
	Host    string
	VMs     []vmTally
	// Events counts every event record; the per-VM tallies sum to it for a
	// stream whose events all name header VMs.
	Events     int64
	ByType     map[core.EventType]int64
	Syscalls   map[uint32]int64
	AddrSpaces int
	Extent     time.Duration
	Ended      bool
	// Cut is the decode error that stopped the walk before a clean EOF.
	// Incident bundles snapshot the stream mid-run, so a truncated tail is
	// reported, not fatal.
	Cut error
	// events holds the decoded events when the walk was asked to keep them.
	events []core.Event
}

// summarize walks a capture once. Cluster (v2) streams carry sparse VMIDs,
// so the per-VM tally is keyed by the header's recorded ID, never indexed by
// it.
func summarize(data []byte, keepEvents bool) (*summary, error) {
	rd, err := capture.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("capture stream: %w", err)
	}
	hdr := rd.Header()
	s := &summary{
		Version:  rd.Version(),
		Host:     hdr.Host,
		ByType:   make(map[core.EventType]int64),
		Syscalls: make(map[uint32]int64),
	}
	slot := make(map[core.VMID]int, len(hdr.VMs))
	for _, vm := range hdr.VMs {
		slot[vm.ID] = len(s.VMs)
		s.VMs = append(s.VMs, vmTally{ID: vm.ID, Name: vm.Name, VCPUs: vm.VCPUs})
	}
	type addrSpace struct {
		vm   core.VMID
		pdba arch.GPA
	}
	spaces := make(map[addrSpace]struct{})
	var rec capture.Record
	for {
		if err := rd.Next(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				s.Cut = err
			}
			break
		}
		switch capture.KindName(rec.Kind) {
		case "event":
			ev := &rec.Event
			s.Events++
			if i, ok := slot[ev.VM]; ok {
				s.VMs[i].Events++
			}
			s.ByType[ev.Type]++
			switch ev.Type {
			case core.EvSyscall:
				s.Syscalls[ev.SyscallNr]++
			case core.EvProcessSwitch:
				spaces[addrSpace{ev.VM, ev.PDBA}] = struct{}{}
			}
			s.Extent = max(s.Extent, ev.Time)
			if keepEvents {
				s.events = append(s.events, *ev)
			}
		case "tick":
			s.Extent = max(s.Extent, rec.Now)
		case "end":
			// Keep walking: epilogue view records trail the end marker.
			s.Ended = true
		}
	}
	s.AddrSpaces = len(spaces)
	return s, nil
}

// vmNames labels Chrome tracks by VMID (sparse IDs leave unused gaps).
func (s *summary) vmNames() []string {
	var names []string
	for _, vm := range s.VMs {
		for int(vm.ID) >= len(names) {
			names = append(names, "")
		}
		names[vm.ID] = vm.Name
	}
	return names
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "  capture: format v%d", s.Version)
	if s.Host != "" {
		fmt.Fprintf(w, ", host %s", s.Host)
	}
	fmt.Fprintf(w, ", %d events over %v, clean end marker: %v\n",
		s.Events, s.Extent.Round(time.Millisecond), s.Ended)
	if s.Cut != nil {
		fmt.Fprintf(w, "  stream ends early: %v\n", s.Cut)
	}
	for _, vm := range s.VMs {
		fmt.Fprintf(w, "    %-12s vmid %-5d %d vCPUs  %8d events\n", vm.Name, vm.ID, vm.VCPUs, vm.Events)
	}
	fmt.Fprintln(w, "\nevents by type:")
	types := make([]core.EventType, 0, len(s.ByType))
	for ty := range s.ByType {
		types = append(types, ty)
	}
	sort.Slice(types, func(i, j int) bool { return types[i].String() < types[j].String() })
	for _, ty := range types {
		fmt.Fprintf(w, "  %-16v %8d\n", ty, s.ByType[ty])
	}
	if len(s.Syscalls) > 0 {
		fmt.Fprintln(w, "\ntop system calls:")
		nrs := make([]uint32, 0, len(s.Syscalls))
		for nr := range s.Syscalls {
			nrs = append(nrs, nr)
		}
		sort.Slice(nrs, func(i, j int) bool {
			if a, b := s.Syscalls[nrs[i]], s.Syscalls[nrs[j]]; a != b {
				return a > b
			}
			return nrs[i] < nrs[j]
		})
		for _, nr := range nrs[:min(len(nrs), 8)] {
			fmt.Fprintf(w, "  %-16v %8d\n", guest.Syscall(nr), s.Syscalls[nr])
		}
	}
	fmt.Fprintf(w, "\ndistinct address spaces observed: %d\n", s.AddrSpaces)
}

// writeTo writes fill's output to the file dst, or to out for "-".
func writeTo(dst string, out io.Writer, fill func(io.Writer) error) error {
	if dst == "-" {
		return fill(out)
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace-analyze:", err)
		os.Exit(1)
	}
}

// run is main's body with its own FlagSet and output, so tests drive it
// in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace-analyze", flag.ContinueOnError)
	var (
		threshold = fs.Duration("threshold", 4*time.Second, "offline GOSHD threshold")
		metricsTo = fs.String("metrics", "", "write a telemetry snapshot of the replay as JSON to this file (- for stdout)")
		chromeTo  = fs.String("chrome-trace", "", "write a Chrome trace-event JSON rendering (Perfetto-viewable) to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trace-analyze [flags] <capture.htcs | incident-bundle-dir>")
	}
	path := fs.Arg(0)

	// An incident bundle is a directory: its flight rings and spans are
	// already decoded, and its exit stream — when the campaign recorded
	// one — is analyzed like a capture file.
	var bundle *flight.Bundle
	var data []byte
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if bundle, err = flight.LoadBundle(path); err != nil {
			return err
		}
		n := 0
		for _, exits := range bundle.Exits {
			n += len(exits)
		}
		fmt.Fprintf(out, "bundle %s: kind %s, %d exit records across %d rings, %d spans\n",
			path, bundle.Meta.Kind, n, len(bundle.Exits), len(bundle.Spans))
		if data = bundle.Capture; len(data) == 0 {
			fmt.Fprintln(out, "  no exit stream in this bundle (its campaign ran without Capture)")
		}
	} else {
		if data, err = os.ReadFile(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "capture %s: %d bytes\n", path, len(data))
	}

	var sum *summary
	if bundle == nil || len(data) > 0 {
		var err error
		if sum, err = summarize(data, bundle == nil && *chromeTo != ""); err != nil {
			return err
		}
		sum.print(out)
	}

	if *chromeTo != "" {
		fill := func(w io.Writer) error { return flight.WriteChrome(w, bundle) }
		if bundle == nil {
			fill = func(w io.Writer) error { return flight.ChromeFromEvents(w, sum.events, sum.vmNames()) }
		}
		if err := writeTo(*chromeTo, out, fill); err != nil {
			return err
		}
		if *chromeTo != "-" {
			fmt.Fprintln(out, "chrome trace written to", *chromeTo, "(open at https://ui.perfetto.dev)")
		}
	}
	if len(data) == 0 {
		return nil
	}

	// Offline judgement: the fleet auditor plane re-driven from the stream,
	// each VM's GOSHD on the clock its recorded ticks advance.
	var reg *telemetry.Registry
	if *metricsTo != "" {
		reg = telemetry.NewRegistry()
	}
	rep, err := experiment.ReplayStream(bytes.NewReader(data),
		experiment.StreamReplayConfig{Threshold: *threshold, Telemetry: reg})
	if err != nil {
		return err
	}
	if reg != nil {
		if err := writeTo(*metricsTo, out, func(w io.Writer) error {
			snap := reg.Snapshot()
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&snap)
		}); err != nil {
			return err
		}
	}
	alarms := 0
	for _, vm := range rep.VMs {
		alarms += vm.Alarms
	}
	fmt.Fprintf(out, "\noffline GOSHD (threshold %v): %d alarms across %d VMs, %d fleetwatch storms, %d divergences\n",
		*threshold, alarms, len(rep.VMs), rep.Storms, rep.Divergences)
	for _, vm := range rep.VMs {
		fmt.Fprintf(out, "  %-12s %8d events  %d goshd alarms\n", vm.Name, vm.Events, vm.Alarms)
	}
	return nil
}
