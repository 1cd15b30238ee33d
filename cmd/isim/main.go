// Command isim simulates intermittent DNN inference of a model on the
// MSP430-class device under a chosen power supply, reporting latency,
// energy, power cycles and the active-time breakdown. It also diffs two
// previously exported metrics CSVs against each other.
//
// Usage:
//
//	isim -model HAR -power weak
//	isim -in har-iprune.model -power 6mW -n 5
//	isim -model HAR -power weak -trace run.json -metrics run.csv -v
//	isim -model HAR -power weak -audit
//	isim -model HAR -sweep 2mW,4mW,8mW,16mW,strong -workers 4
//	isim -compare before.csv after.csv
//
// Flags:
//
//	-model NAME     SQN, HAR or CKS (fresh, untrained weights; default HAR)
//	-in FILE        simulate a model file written by cmd/iprune instead
//	-power NAME     continuous | strong | weak, or a custom value like 6mW
//	-n N            number of inferences to simulate (default 1)
//	-seed N         random seed for harvest jitter (default 1)
//	-trace FILE     stream a Chrome trace-event JSON of the run (open in
//	                https://ui.perfetto.dev or chrome://tracing): one
//	                process section per inference, plus one section
//	                overlaying the functional engine's calibrated trace of
//	                the same model and supply on the same time axis;
//	                events are encoded as they happen, so memory use does
//	                not grow with the run
//	-metrics FILE   write per-layer latency/energy/NVM-traffic CSV of the
//	                first inference
//	-hist FILE      write latency/energy/utilization histograms CSV of
//	                the first inference
//	-sweep LIST     simulate one inference per supply in the
//	                comma-separated list (each entry a -power spelling)
//	                and print one line per operating point; points run
//	                concurrently when -workers > 1, with deterministic
//	                output order
//	-workers N      worker-pool width for -sweep (0 = one per CPU;
//	                default 1, sequential)
//	-audit          audit the first inference's measured per-region and
//	                per-power-cycle energy against the static power-cycle
//	                budget; exits non-zero on a violation
//	-auditlint FILE cross-check an `iprunelint -json` report in the audit
//	                (regionbudget findings fail it)
//	-cpuprofile F   write a runtime/pprof CPU profile of the simulation
//	-memprofile F   write a heap profile taken after the simulation
//	-v              print a per-layer and per-power-cycle summary table
//	-compare        diff two metrics CSVs and exit: per-layer tables
//	                (written by -metrics) diff layer by layer, histogram
//	                exports (written by -hist) diff by p50/p95/p99 tails
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"iprune"
)

func main() {
	model := flag.String("model", "HAR", "model name: SQN, HAR or CKS")
	in := flag.String("in", "", "model file to simulate")
	powerName := flag.String("power", "strong", "supply: continuous|strong|weak or e.g. 6mW")
	n := flag.Int("n", 1, "inferences to simulate")
	seed := flag.Int64("seed", 1, "harvest jitter seed")
	tracePath := flag.String("trace", "", "stream Chrome trace-event JSON of the run")
	metricsPath := flag.String("metrics", "", "write per-layer metrics CSV of the first inference")
	histPath := flag.String("hist", "", "write latency/energy/utilization histograms CSV of the first inference")
	sweep := flag.String("sweep", "", "comma-separated supplies to sweep (e.g. 2mW,4mW,8mW,strong); prints one line per point")
	workers := flag.Int("workers", 1, "parallel workers for -sweep (0 = one per CPU)")
	audit := flag.Bool("audit", false, "audit measured energy against the static power-cycle budget")
	auditLint := flag.String("auditlint", "", "iprunelint -json report to cross-check in the audit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a post-simulation heap profile to this file")
	verbose := flag.Bool("v", false, "print per-layer and power-cycle summary")
	compare := flag.Bool("compare", false, "diff two metrics CSVs: isim -compare A.csv B.csv")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: isim -compare before.csv after.csv")
		}
		if err := compareCSVs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}

	var net *iprune.Network
	var err error
	if *in != "" {
		net, err = iprune.LoadModel(*in)
	} else {
		net, err = iprune.BuildModel(*model, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *sweep != "" {
		if err := runSweep(os.Stdout, net, *sweep, *seed, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}

	sup, err := iprune.ParseSupply(*powerName)
	if err != nil {
		log.Fatal(err)
	}

	st, err := iprune.Stats(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s (%d KB, %d K MACs, %d K accelerator outputs)\n",
		net.Name, st.SizeBytes/1024, st.MACs/1000, st.AccOutputs/1000)
	fmt.Printf("supply: %s (%g mW)\n", sup.Name, sup.Power*1e3)

	// Aggregated views (metrics CSV, histograms, summary, audit) ride on
	// a recorder attached to the first inference: repeated inferences
	// differ only by harvest jitter, and the audit's power-cycle
	// accounting needs one run's coherent time axis. The trace artifact
	// streams every inference to disk, each as its own process section.
	names := iprune.PrunableLayerNames(net)
	var rec *iprune.TraceRecorder
	if *metricsPath != "" || *histPath != "" || *verbose || *audit {
		rec = iprune.NewTraceRecorder()
	}
	var stream *iprune.TraceStream
	if *tracePath != "" {
		if stream, err = iprune.CreateTraceStream(*tracePath, names); err != nil {
			log.Fatal(err)
		}
	}

	stopProf, err := iprune.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	// Compile once; every inference below runs the same plan.
	plan, err := iprune.CompileSim(net)
	if err != nil {
		log.Fatal(err)
	}
	var totalLat, totalEnergy float64
	var totalFail int
	for i := 0; i < *n; i++ {
		var tr iprune.Tracer
		switch {
		case stream != nil:
			stream.NextProcess(fmt.Sprintf("cost-sim inference %d", i+1), names)
			if i == 0 && rec != nil {
				tr = iprune.TeeTracers(stream, rec)
			} else {
				tr = stream
			}
		case i == 0 && rec != nil:
			tr = rec
		}
		r, simErr := plan.Simulate(sup, *seed+int64(i), tr)
		if simErr != nil {
			log.Fatal(simErr)
		}
		totalLat += r.Latency
		totalEnergy += r.Energy
		totalFail += r.Failures
		fmt.Printf("inference %d: latency %.3fs (active %.3fs, charging %.3fs), %d power cycles, %.2f mJ\n",
			i+1, r.Latency, r.ActiveTime, r.OffTime, r.Failures, r.Energy*1e3)
		if i == 0 {
			b := r.Break
			total := b.ReadTime + b.WriteTime + b.ComputeTime + b.OverheadTime
			if total > 0 {
				fmt.Printf("  breakdown: NVM-read %.1f%%  NVM-write %.1f%%  compute %.1f%%  overhead %.1f%%  (+recovery %.3fs)\n",
					100*b.ReadTime/total, 100*b.WriteTime/total,
					100*b.ComputeTime/total, 100*b.OverheadTime/total, b.RecoveryTime)
			}
		}
	}
	if *n > 1 {
		fmt.Printf("mean: latency %.3fs, %.1f power cycles, %.2f mJ\n",
			totalLat/float64(*n), float64(totalFail)/float64(*n), totalEnergy*1e3/float64(*n))
	}

	if stream != nil {
		// Overlay the functional engine's energy-calibrated trace of the
		// same model and supply as one more process section: both
		// backends then share the microsecond/joule axis in the viewer.
		stream.NextProcess("engine (calibrated)", names)
		if err := iprune.ObserveEngine(net, sup, *seed, stream, nil); err != nil {
			log.Fatal(err)
		}
	}

	if err := stopProf(); err != nil {
		log.Fatal(err)
	}

	if stream != nil {
		// A failed Close means the artifact is truncated: exit non-zero
		// rather than reporting a file that will not load.
		if err := stream.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote trace %s (%d events, streamed; open in https://ui.perfetto.dev)\n",
			*tracePath, stream.Events())
	}
	if rec == nil {
		return
	}
	stats := iprune.CollectTrace(rec.Events())

	if *metricsPath != "" {
		err := iprune.WriteArtifact(*metricsPath, func(w io.Writer) error {
			return iprune.WriteTraceCSV(w, stats, names)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics %s (%d layers)\n", *metricsPath, len(stats.Layers))
	}
	if *histPath != "" || *verbose {
		m := iprune.NewMetrics()
		stats.Fill(m)
		if err := iprune.ObserveModel(m, net); err != nil {
			log.Fatal(err)
		}
		if *histPath != "" {
			err := iprune.WriteArtifact(*histPath, func(w io.Writer) error {
				return iprune.WriteHistogramsCSV(w, m)
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote histograms %s\n", *histPath)
		}
		if *verbose {
			if err := iprune.WriteTraceSummary(os.Stdout, stats, m, names); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *audit {
		report := iprune.AuditTrace(rec.Events(), sup)
		if *auditLint != "" {
			f, err := os.Open(*auditLint)
			if err != nil {
				log.Fatal(err)
			}
			count, err := iprune.CountRegionFindings(f)
			f.Close() //iprune:allow-err read-only file; decode errors dominate
			if err != nil {
				log.Fatal(err)
			}
			report.StaticFindings = count
		}
		if err := report.WriteReport(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if report.Failed() {
			os.Exit(1)
		}
	}
}

// runSweep simulates one inference per supply in list (comma-separated
// -power spellings), fanned out -workers wide over the internal worker
// pool, and prints one line per operating point in input order. Points
// that cannot complete (e.g. a supply too weak to charge one op) print
// their error on the point's line instead of failing the whole sweep.
func runSweep(w io.Writer, net *iprune.Network, list string, seed int64, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var sups []iprune.Supply
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sup, err := iprune.ParseSupply(name)
		if err != nil {
			return err
		}
		sups = append(sups, sup)
	}
	if len(sups) == 0 {
		return fmt.Errorf("isim: -sweep needs at least one supply")
	}
	st, err := iprune.Stats(net)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "model: %s (%d KB, %d K MACs, %d K accelerator outputs)\n",
		net.Name, st.SizeBytes/1024, st.MACs/1000, st.AccOutputs/1000); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "sweep: %d supplies, %d worker(s)\n", len(sups), workers); err != nil {
		return err
	}
	for _, p := range iprune.PowerSweep(net, sups, seed, workers) {
		if p.Err != nil {
			if _, err := fmt.Fprintf(w, "%-12s %8.3f mW  error: %v\n", p.Supply.Name, p.Supply.Power*1e3, p.Err); err != nil {
				return err
			}
			continue
		}
		r := p.Result
		if _, err := fmt.Fprintf(w, "%-12s %8.3f mW  latency %8.3fs  %4d power cycles  %8.2f mJ\n",
			p.Supply.Name, p.Supply.Power*1e3, r.Latency, r.Failures, r.Energy*1e3); err != nil {
			return err
		}
	}
	return nil
}

// compareCSVs diffs two metrics CSV exports and renders the comparison
// table: per-layer run stats (the -metrics format) layer by layer, or
// histogram exports (the -hist format) by count, mean and tail
// quantiles. The format is sniffed from the header line, so both sides
// must be the same kind.
func compareCSVs(w io.Writer, pathA, pathB string) error {
	if isHistCSV(pathA) || isHistCSV(pathB) {
		before, err := readHistFile(pathA)
		if err != nil {
			return err
		}
		after, err := readHistFile(pathB)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "comparing %s vs %s\n", pathA, pathB); err != nil {
			return err
		}
		return iprune.WriteHistogramDiffTable(w, before, after)
	}
	before, namesA, err := readStatsFile(pathA)
	if err != nil {
		return err
	}
	after, namesB, err := readStatsFile(pathB)
	if err != nil {
		return err
	}
	names := namesA
	if len(namesB) > len(names) {
		names = namesB
	}
	if _, err := fmt.Fprintf(w, "comparing %s vs %s\n", pathA, pathB); err != nil {
		return err
	}
	return iprune.WriteTraceDiffTable(w, iprune.DiffTrace(before, after), names)
}

// isHistCSV sniffs whether path is a histogram export (the -hist
// format) by its header line.
func isHistCSV(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close() //iprune:allow-err read-only sniff; the real read reopens
	var head [13]byte
	n, _ := f.Read(head[:])
	return bytes.HasPrefix(head[:n], []byte("histogram,le,"))
}

func readStatsFile(path string) (*iprune.RunStats, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //iprune:allow-err read-only file; ReadTraceCSV errors dominate
	s, names, err := iprune.ReadTraceCSV(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, names, nil
}

func readHistFile(path string) (*iprune.Metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //iprune:allow-err read-only file; ReadHistogramsCSV errors dominate
	m, err := iprune.ReadHistogramsCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
