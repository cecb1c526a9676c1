// Command hypertap-capture works with the exit-stream capture format
// (internal/capture, .htcs): versioned recordings of the Event Forwarder's
// decoded exit stream that replay through the auditor plane to the live
// run's verdicts with no guest anywhere.
//
// Modes:
//
//	hypertap-capture record -o stream.htcs [-seed N -cap-vms N -vcpus N -events N -tick D]
//	    writes a deterministic synthetic capture (capture.Generate) — fuzz
//	    seeds, benchmark inputs, format examples.
//	hypertap-capture info stream.htcs
//	    decodes the header and tallies the stream: records by kind, events
//	    and ticks per VM, wall and virtual extent.
//	hypertap-capture replay stream.htcs [-strict -json]
//	    re-drives the fleet auditor plane (per-VM GOSHD + fleetwatch) from
//	    the stream via experiment.ReplayStream and reports the verdicts.
//	hypertap-capture replay -bundle dir [-threshold D -json]
//	    same, from an incident bundle's capture.htcs (campaigns run with
//	    Capture record one) via experiment.ReplayIncidentStream.
//
// Real captures come out of incident bundles and cmd/hypertap -capture;
// synthetic ones out of record.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hypertap-capture:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: hypertap-capture <record|info|replay> [flags] [file]")
	}
	switch os.Args[1] {
	case "record":
		return runRecord(os.Args[2:])
	case "info":
		return runInfo(os.Args[2:])
	case "replay":
		return runReplay(os.Args[2:])
	default:
		return fmt.Errorf("unknown mode %q (want record, info or replay)", os.Args[1])
	}
}

func runRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out    = fs.String("o", "", "output file (required)")
		seed   = fs.Int64("seed", 1, "deterministic seed")
		vms    = fs.Int("cap-vms", 2, "VMs in the generated stream")
		vcpus  = fs.Int("vcpus", 2, "vCPUs per VM")
		events = fs.Int("events", 10000, "events to generate")
		tick   = fs.Duration("tick", time.Millisecond, "virtual tick between rounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	data := capture.Generate(*seed, *vms, *vcpus, *events, *tick)
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events, %d VMs, %d bytes\n", *out, *events, *vms, len(data))
	return nil
}

// streamInfo is the info-mode tally (also its -json shape).
type streamInfo struct {
	Version    int              `json:"version"`
	Host       string           `json:"host,omitempty"`
	Tick       time.Duration    `json:"tick_ns"`
	VMs        []vmInfo         `json:"vms"`
	Records    map[string]int64 `json:"records"`
	VirtualEnd time.Duration    `json:"virtual_end_ns"`
	Ended      bool             `json:"ended"`
	Bytes      int64            `json:"bytes"`
}

type vmInfo struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	VCPUs  int    `json:"vcpus"`
	Events int64  `json:"events"`
	Ticks  int64  `json:"ticks"`
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the tally as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want exactly one capture file")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	rd, err := capture.NewReader(f)
	if err != nil {
		return err
	}
	hdr := rd.Header()
	info := streamInfo{
		Version: rd.Version(),
		Host:    hdr.Host,
		Tick:    hdr.Tick,
		Records: map[string]int64{},
		Bytes:   st.Size(),
	}
	// Cluster (v2) streams carry sparse VMIDs, so the per-VM tally can't
	// index info.VMs by rec.Event.VM directly.
	slot := make(map[core.VMID]int, len(hdr.VMs))
	for _, vm := range hdr.VMs {
		slot[vm.ID] = len(info.VMs)
		info.VMs = append(info.VMs, vmInfo{ID: int(vm.ID), Name: vm.Name, VCPUs: vm.VCPUs})
	}
	var rec capture.Record
	for {
		err := rd.Next(&rec)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// A truncated tail is worth describing, not hiding: report what
			// decoded cleanly plus the cut point.
			fmt.Fprintf(os.Stderr, "info: stream ends early: %v\n", err)
			break
		}
		name := capture.KindName(rec.Kind)
		info.Records[name]++
		switch name {
		case "event":
			if i, ok := slot[rec.Event.VM]; ok {
				info.VMs[i].Events++
			}
			if rec.Event.Time > info.VirtualEnd {
				info.VirtualEnd = rec.Event.Time
			}
		case "tick":
			if i, ok := slot[rec.VM]; ok {
				info.VMs[i].Ticks++
			}
			if rec.Now > info.VirtualEnd {
				info.VirtualEnd = rec.Now
			}
		case "end":
			// Keep reading: epilogue view records (cross-validation reads
			// performed after the schedule stopped) trail the end marker and
			// belong in the tally.
			info.Ended = true
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&info)
	}
	fmt.Printf("%s: format v%d, %d bytes, tick %v\n", path, info.Version, info.Bytes, info.Tick)
	if info.Host != "" {
		fmt.Printf("host: %s\n", info.Host)
	}
	fmt.Printf("records:")
	for _, k := range []string{"event", "tick", "barrier", "view", "counter", "end"} {
		if n := info.Records[k]; n > 0 {
			fmt.Printf("  %s=%d", k, n)
		}
	}
	fmt.Printf("\nvirtual extent: %v  clean end marker: %v\n", info.VirtualEnd, info.Ended)
	for _, vm := range info.VMs {
		fmt.Printf("  %-12s vmid %-5d %d vCPUs  %8d events  %6d ticks\n", vm.Name, vm.ID, vm.VCPUs, vm.Events, vm.Ticks)
	}
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		bundle    = fs.String("bundle", "", "replay an incident bundle's capture.htcs instead of a file")
		threshold = fs.Duration("threshold", 100*time.Millisecond, "GOSHD hang threshold")
		strict    = fs.Bool("strict", false, "fail on any divergence instead of counting")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rep *experiment.StreamReplayReport
	if *bundle != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("replay: -bundle and a capture file are mutually exclusive")
		}
		r, err := experiment.ReplayIncidentStream(experiment.FleetConfig{Threshold: *threshold}, *bundle)
		if err != nil {
			return err
		}
		rep = r
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("replay: want exactly one capture file (or -bundle)")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := experiment.ReplayStream(f, experiment.StreamReplayConfig{Threshold: *threshold, Strict: *strict})
		if err != nil {
			return err
		}
		rep = r
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("replayed %d events across %d VMs  storms=%d  divergences=%d\n",
		rep.Events, len(rep.VMs), rep.Storms, rep.Divergences)
	for _, vm := range rep.VMs {
		fmt.Printf("  %-12s %8d events  %d goshd alarms\n", vm.Name, vm.Events, vm.Alarms)
	}
	return nil
}
