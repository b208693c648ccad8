// Command tracegen generates workload traces to files.
//
// Usage:
//
//	tracegen -program xalan -scale 4000 -seed 1 -o xalan.trace
//	tracegen -figure figure1 -text -o fig1.txt
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/workload"
	"repro/race"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		program = flag.String("program", "", "DaCapo-calibrated workload to generate")
		figure  = flag.String("figure", "", "paper figure trace to emit (figure1..figure4d)")
		scale   = flag.Int("scale", 4000, "scale divisor for -program")
		seed    = flag.Int64("seed", 1, "workload seed")
		out     = flag.String("o", "", "output file (default stdout)")
		text    = flag.Bool("text", false, "emit the text format instead of binary")
		list    = flag.Bool("list", false, "list available programs and figures")
	)
	flag.Parse()
	if *scale < 1 { // a divisor: 0 would divide by zero inside the generator
		log.Printf("-scale %d: the scale divisor must be at least 1", *scale)
		os.Exit(2)
	}

	if *list {
		fmt.Println("programs:")
		for _, p := range workload.Programs {
			fmt.Printf("  %-10s %d threads, %.0fM paper events\n", p.Name, p.Threads, p.PaperEventsM)
		}
		fmt.Println("figures:")
		for _, f := range workload.Figures() {
			fmt.Printf("  %s\n", f.Name)
		}
		return
	}

	var tr *race.Trace
	switch {
	case *program != "":
		p, ok := workload.ProgramByName(*program)
		if !ok {
			log.Fatalf("unknown program %q (try -list)", *program)
		}
		tr = p.Generate(*scale, *seed)
	case *figure != "":
		for _, f := range workload.Figures() {
			if f.Name == *figure {
				tr = f.Trace
				break
			}
		}
		if tr == nil {
			log.Fatalf("unknown figure %q (try -list)", *figure)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	var err error
	if *text {
		err = race.WriteTraceText(w, tr)
	} else {
		// Stream through the encoder — the same path a live producer that
		// never holds the whole trace would use.
		enc := race.NewTraceEncoder(w, race.HintsOf(tr))
		for _, e := range tr.Events {
			if err = enc.Encode(e); err != nil {
				break
			}
		}
		if err == nil {
			err = enc.Close()
		}
	}
	if err != nil {
		log.Fatalf("writing trace: %v", err)
	}
	log.Printf("%d events, %d threads, %d vars, %d locks",
		tr.Len(), tr.Threads, tr.Vars, tr.Locks)
}
