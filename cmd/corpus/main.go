// Command corpus manages a persistent archive of Harpocrates test
// programs: list and import entries, distill the archive to a minimal
// covering subset, and export ranked programs for fleet deployment.
// Ranking — measuring each program's fault-detection capability — is a
// fault-injection campaign, so it is faultsim's corpus mode
// (faultsim -corpus DIR).
//
// Usage:
//
//	corpus ls      -dir corpus
//	corpus add     -dir corpus -file best.hxpg -structure irf
//	faultsim -corpus corpus -target irf -n 100 -seed 1 -resume
//	corpus distill -dir corpus -structure irf -apply
//	corpus export  -dir corpus -structure irf -out fleet/ -top 4
package main

import (
	"flag"
	"fmt"
	"os"

	"harpocrates"
	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: corpus <command> [flags]

commands:
  ls       list archived programs (hash, structure, fitness, detection)
  add      import a .hxpg program file into the archive
  distill  minimize the archive to the smallest subset preserving the
           union of detected-fault sets (greedy set cover)
  export   copy the top-ranked programs out as .hxpg files

run "corpus <command> -h" for command flags; rank the archive (record
each program's detection rate and detected-fault set) with
"faultsim -corpus DIR -target STRUCTURE"
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func openStore(dir string, ob *obs.Observer) *corpus.Store {
	if dir == "" {
		fatal(fmt.Errorf("corpus: -dir is required"))
	}
	s, err := corpus.Open(dir, ob)
	if err != nil {
		fatal(err)
	}
	return s
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "ls":
		cmdLs(args)
	case "add":
		cmdAdd(args)
	case "distill":
		cmdDistill(args)
	case "export":
		cmdExport(args)
	default:
		usage()
	}
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("corpus ls", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	structure := fs.String("structure", "", "restrict to one structure")
	fs.Parse(args)
	st := openStore(*dir, nil)

	metas := st.List()
	if *structure != "" {
		c, err := coverage.Parse(*structure)
		if err != nil {
			fatal(err)
		}
		metas = st.ListStructure(c.String())
	}
	fmt.Printf("%-16s %-10s %8s %8s %9s %6s %s\n",
		"HASH", "STRUCTURE", "FITNESS", "DETECT", "FAULTS", "INSTS", "NAME")
	for _, m := range metas {
		det, faults := "-", "-"
		if m.Ranked() {
			det = fmt.Sprintf("%.1f%%", 100*m.Detection)
			faults = fmt.Sprintf("%d/%d", len(m.Detected), m.FaultN)
		}
		fmt.Printf("%-16s %-10s %8.4f %8s %9s %6d %s\n",
			m.Hash, m.Structure, m.Fitness, det, faults, m.Insts, m.Name)
	}
	fmt.Printf("%d programs\n", len(metas))
}

func cmdAdd(args []string) {
	fs := flag.NewFlagSet("corpus add", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	file := fs.String("file", "", ".hxpg program file to import")
	structure := fs.String("structure", "", "target structure the program tests")
	bound := fs.Int("max", 0, "per-structure archive bound (0 = unbounded)")
	fs.Parse(args)
	if *file == "" || *structure == "" {
		fatal(fmt.Errorf("corpus add: -file and -structure are required"))
	}
	c, err := coverage.Parse(*structure)
	if err != nil {
		fatal(err)
	}
	p, err := prog.Load(*file)
	if err != nil {
		fatal(err)
	}
	st := openStore(*dir, nil)
	st.SetBound(*bound)

	// Grade the import so it lands fitness-ranked alongside evolved
	// entries.
	sim := harpocrates.Simulate(p, c)
	fitness := 0.0
	if sim.Clean() {
		fitness = sim.Snapshot.Value(c)
	} else {
		fmt.Fprintf(os.Stderr, "warning: program does not run cleanly; archiving with fitness 0\n")
	}
	res, err := st.Add(p, nil, corpus.Meta{
		Structure: c.String(),
		Fitness:   fitness,
		Iteration: -1,
	})
	if err != nil {
		fatal(err)
	}
	if res.Added {
		fmt.Printf("added %s (%s, fitness %.4f, %d instructions)\n",
			res.Hash, c, fitness, len(p.Insts))
	} else {
		fmt.Printf("not retained: %s (duplicate or below the fitness bound)\n", res.Hash)
	}
	for _, h := range res.Evicted {
		fmt.Printf("evicted %s\n", h)
	}
}

func cmdDistill(args []string) {
	fs := flag.NewFlagSet("corpus distill", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	structure := fs.String("structure", "", "structure to distill")
	apply := fs.Bool("apply", false, "actually remove redundant entries (default: dry run)")
	fs.Parse(args)
	if *structure == "" {
		fatal(fmt.Errorf("corpus distill: -structure is required"))
	}
	c, err := coverage.Parse(*structure)
	if err != nil {
		fatal(err)
	}
	st := openStore(*dir, nil)

	kept, dropped, err := st.Distill(c.String(), *apply)
	if err != nil {
		fatal(err)
	}
	union := corpus.DetectedUnion(kept)
	for _, m := range kept {
		fmt.Printf("keep %s  detects %d/%d  fitness %.4f\n",
			m.Hash, len(m.Detected), m.FaultN, m.Fitness)
	}
	for _, m := range dropped {
		verb := "would drop"
		if *apply {
			verb = "dropped"
		}
		fmt.Printf("%s %s  detects %d/%d (all covered by kept set)\n",
			verb, m.Hash, len(m.Detected), m.FaultN)
	}
	fmt.Printf("distilled %d -> %d programs, union of detected faults preserved (%d faults)\n",
		len(kept)+len(dropped), len(kept), len(union))
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("corpus export", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory")
	structure := fs.String("structure", "", "structure to export")
	out := fs.String("out", "", "output directory")
	top := fs.Int("top", 0, "export only the top K by fitness (0 = all)")
	fs.Parse(args)
	if *structure == "" || *out == "" {
		fatal(fmt.Errorf("corpus export: -structure and -out are required"))
	}
	c, err := coverage.Parse(*structure)
	if err != nil {
		fatal(err)
	}
	st := openStore(*dir, nil)
	paths, err := st.Export(c.String(), *top, *out)
	if err != nil {
		fatal(err)
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	fmt.Printf("exported %d programs to %s\n", len(paths), *out)
}
