package repro_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The docs name the code. README.md and the verify skill quote
// declarations, options, flags, tests, span names and files in backticks
// and show command lines in sh blocks; the package comments of cmd/* show
// command lines too. TestDocNamesResolve holds each such name to the tree,
// so a rename or a deletion that leaves a doc behind fails here instead of
// misleading the next reader:
//
//   - A Go selector (`race.NewEngine`, `Report.Vindicate`,
//     `fleet.Options.NewSessionID`, exported or not, call parentheses
//     dropped) names a declaration, field or method of the module, or of a
//     standard package the module imports. `WithX` names a package-level
//     function; `TestX`, `BenchmarkX` and `FuzzX` a test function; any other
//     exported identifier something the module declares.
//   - A -flag after a command (tracegen, racedetect, …, and run.sh for the
//     benchmark) is declared by it: a flag.* call in its package, or in
//     internal/daemon when the command imports that. A bare `-flag` is
//     declared by some command, a bare `--flag` by the benchmark. Each
//     -run, -bench and -fuzz alternative of a go test line matches some
//     test function.
//   - A dotted name that is not Go — a span name, a metric row, a file —
//     is a string literal in non-test Go, the name of a file in the repo or
//     a metric of BENCHMARK.json. A path under a top-level directory of the
//     repo exists.
//
// Reading a failure: "README.md:1238: `Graph.Observe` resolves to nothing"
// names the line and the name. Say what the code does now, or, for a name
// kept on purpose, add a row to docAllow beside its reason.
//
// benchmark/README.md is not scanned (benchmark/ changes only with the
// benchmark), nor are ROADMAP.md and CHANGES.md, which are history.

// docFiles are the documents scanned, besides the cmd/* package comments.
var docFiles = []string{"README.md", ".claude/skills/verify/SKILL.md"}

const keepExample keep = "an example of what a failure prints, naming nothing on purpose"

// docAllow holds names the docs keep on purpose though they resolve to
// nothing; a row that excuses no finding fails the test.
var docAllow = []allowRow{
	{"store.Log.Dir", keepExample},
}

func TestDocNamesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	inv := loadInventory(t)
	docs := readDocs(t)
	ix := newDocIndex(t, inv)
	for _, msg := range ix.check(docs, docAllow) {
		t.Error(msg)
	}

	// Mutation checks: the test must notice what it exists to notice.
	// reported tells whether a finding in got names name, in a document
	// whose path starts with doc.
	reported := func(got []string, doc, name string) bool {
		return slices.ContainsFunc(got, func(msg string) bool {
			return strings.HasPrefix(msg, doc) && strings.Contains(msg, "`"+name+"`")
		})
	}
	t.Run("unknown name in the README", func(t *testing.T) {
		mut := append([]docText(nil), docs...)
		mut[0].text += "\nSee `race.NoSuchThing`.\n"
		if got := ix.check(mut, docAllow); !reported(got, "README.md:", "race.NoSuchThing") {
			t.Errorf("a README naming race.NoSuchThing: got %q", got)
		}
	})
	t.Run("renamed method", func(t *testing.T) {
		mut := inv.withSource(t, "race", "race.go", func(src string) string {
			return strings.Replace(src, ") Vindicate(tr *Trace) error", ") Revindicate(tr *Trace) error", 1)
		})
		if got := newDocIndex(t, mut).check(docs, docAllow); !reported(got, "", "Report.Vindicate") {
			t.Errorf("Report.Vindicate renamed: got %q", got)
		}
	})
	t.Run("dropped flag", func(t *testing.T) {
		mut := inv.withSource(t, "cmd/racefleet", "main.go", func(src string) string {
			return regexp.MustCompile(`(?m)^.*"probe-interval".*$`).ReplaceAllString(src, "")
		})
		got := newDocIndex(t, mut).check(docs, docAllow)
		for _, doc := range []string{"README.md:", "cmd/racefleet/main.go:"} {
			if !reported(got, doc, "-probe-interval") {
				t.Errorf("racefleet without -probe-interval: nothing reported in %s; got %q", doc, got)
			}
		}
	})
	t.Run("every allow-list row is needed", func(t *testing.T) {
		for i, row := range docAllow {
			rest := append(append(docAllow[:0:0], docAllow[:i]...), docAllow[i+1:]...)
			if got := ix.check(docs, rest); !reported(got, "", row.id) {
				t.Errorf("deleting row %q: got %q, want its name reported", row.id, got)
			}
		}
	})
}

// docText is one scanned document: a markdown file, or the package comment
// of a command's main.go (the lines before its package clause).
type docText struct {
	path, text string
}

func readDocs(t *testing.T) []docText {
	t.Helper()
	var docs []docText
	for _, name := range docFiles {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, docText{name, string(b)})
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range mains {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		head, _, _ := strings.Cut(string(b), "\npackage ")
		docs = append(docs, docText{filepath.ToSlash(name), head})
	}
	return docs
}

// docIndex is everything a doc may name.
type docIndex struct {
	pkgs     map[string][]*types.Package // by name: the module's, then the standard ones it imports
	types    map[string][]*types.TypeName
	declared map[string]bool // package-level names, methods and fields of the module
	options  map[string]bool // package-level functions named With…
	tests    map[string]bool
	literals map[string]bool // string literals of the loaded packages
	files    map[string]bool // repo-relative paths, and base names
	topDirs  map[string]bool
	metrics  map[string]bool
	flags    map[string]map[string]bool // command → its flags; "run.sh" is the benchmark
}

func newDocIndex(t *testing.T, inv *inventory) *docIndex {
	t.Helper()
	ix := &docIndex{
		pkgs: make(map[string][]*types.Package), types: make(map[string][]*types.TypeName),
		declared: make(map[string]bool), options: make(map[string]bool), tests: make(map[string]bool),
		literals: make(map[string]bool), files: make(map[string]bool), topDirs: make(map[string]bool),
		metrics: make(map[string]bool), flags: make(map[string]map[string]bool),
	}
	seen := make(map[*types.Package]bool)
	var std func(p *types.Package)
	std = func(p *types.Package) {
		if seen[p] || strings.HasPrefix(p.Path(), modulePath) {
			return
		}
		seen[p] = true
		ix.pkgs[p.Name()] = append(ix.pkgs[p.Name()], p)
		for _, imp := range p.Imports() {
			std(imp)
		}
	}
	for _, p := range inv.pkgs {
		if p.types.Name() != "main" {
			ix.pkgs[p.types.Name()] = append(ix.pkgs[p.types.Name()], p.types)
		}
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			ix.declared[name] = true
			switch obj := obj.(type) {
			case *types.Func:
				if strings.HasPrefix(name, "With") {
					ix.options[name] = true
				}
			case *types.TypeName:
				ix.types[name] = append(ix.types[name], obj)
				ix.declareMembers(obj.Type())
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						ix.literals[s] = true
					}
				}
				return true
			})
		}
		if p.types.Name() == "main" && (strings.HasPrefix(p.dir, "cmd/") || p.dir == "benchmark") {
			cmd := filepath.Base(p.dir)
			if p.dir == "benchmark" {
				cmd = "run.sh"
			}
			ix.flags[cmd] = flagsOf(p)
			for _, imp := range p.types.Imports() {
				if imp.Path() == modulePath+"/internal/daemon" {
					for name := range flagsOf(inv.pkgs[imp.Path()]) {
						ix.flags[cmd][name] = true
					}
				}
			}
		}
		for _, imp := range p.types.Imports() {
			std(imp)
		}
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(name)
		ix.files[rel], ix.files[d.Name()] = true, true
		if d.IsDir() && rel != "." && !strings.Contains(rel, "/") {
			ix.topDirs[rel] = true
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncRE.MatchString(fn.Name.Name) {
				ix.tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		ix.metrics[m.Name] = true
	}
	return ix
}

// declareMembers records the methods and fields of a declared type.
func (ix *docIndex) declareMembers(t types.Type) {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		for i := 0; i < named.NumMethods(); i++ {
			ix.declared[named.Method(i).Name()] = true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			ix.declared[u.Field(i).Name()] = true
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			ix.declared[u.Method(i).Name()] = true
		}
	}
}

// flagsOf returns the flags a package declares: the name of every call into
// package flag (flag.String, FlagSet.Var, …) is its first string argument.
func flagsOf(p *invPkg) map[string]bool {
	out := make(map[string]bool)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := p.info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out[name] = true
					break
				}
			}
			return true
		})
	}
	return out
}

var (
	testFuncRE  = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z_0-9]\w*$`)
	flagRE      = regexp.MustCompile(`^--?[a-z][a-z0-9.-]*(=\S*)?$`)
	selectorRE  = regexp.MustCompile(`^[A-Za-z]\w*(\.[A-Za-z_]\w*)+$`)
	optionRE    = regexp.MustCompile(`^With[A-Z]\w*$`)
	exportedRE  = regexp.MustCompile(`^[A-Z][A-Za-z0-9_]+$`)
	dottedRE    = regexp.MustCompile(`^[A-Za-z][\w-]*(\.[\w-]+)+$`)
	pathRE      = regexp.MustCompile(`^\.?[\w.{},-]+(/[\w.{},-]+)*/?$`)
	callRE      = regexp.MustCompile(`\([^()]*\)|\[[^\[\]]*\]`)
	spanRE      = regexp.MustCompile("`([^`]+)`")
	goPublicRE  = regexp.MustCompile(`\b(race|sync)\.([A-Z]\w*)`)
	proseFlagRE = regexp.MustCompile(`(?:^|[\s(])(-[a-z][a-z0-9-]*)`)
	braceRE     = regexp.MustCompile(`\{([^{}]*)\}`)
)

// check returns one message per name in docs that resolves to nothing and
// no allow row excuses, in document order, then one per row that excused
// nothing.
func (ix *docIndex) check(docs []docText, allow []allowRow) []string {
	used := make([]bool, len(allow))
	var out []string
	for _, d := range docs {
		report := func(line int, name, why string) {
			for i, row := range allow {
				if row.id == name {
					used[i] = true
					return
				}
			}
			out = append(out, d.path+":"+strconv.Itoa(line)+": `"+name+"` "+why)
		}
		if strings.HasSuffix(d.path, ".go") {
			ix.checkCommandDoc(d.text, path.Base(path.Dir(d.path)), report)
		} else {
			ix.checkMarkdown(d.text, report)
		}
	}
	for i, row := range allow {
		if !used[i] {
			out = append(out, "docAllow row `"+row.id+"` excuses nothing")
		}
	}
	return out
}

// checkMarkdown checks the inline code spans of prose, the command lines
// of sh blocks and the race/sync selectors of Go blocks.
func (ix *docIndex) checkMarkdown(text string, report func(line int, name, why string)) {
	lines := strings.Split(text, "\n")
	prose := make([]string, len(lines))
	fence := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "```") {
			if fence == "" {
				fence = strings.TrimPrefix(trimmed, "```") + " " // an unlabelled block is open too
			} else {
				fence = ""
			}
			continue
		}
		switch strings.TrimSpace(fence) {
		case "":
			prose[i] = line
		case "sh", "bash", "shell":
			start := i
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			ix.checkShell(line, func(name, why string) { report(start+1, name, why) })
		case "go":
			for _, m := range goPublicRE.FindAllStringSubmatch(line, -1) {
				if !ix.selector([]string{m[1], m[2]}) {
					report(i+1, m[0], "resolves to nothing")
				}
			}
		}
	}
	masked := strings.Join(prose, "\n")
	for _, m := range spanRE.FindAllStringSubmatchIndex(masked, -1) {
		line := strings.Count(masked[:m[0]], "\n") + 1
		span := strings.TrimSpace(strings.ReplaceAll(masked[m[2]:m[3]], "\n", " "))
		rep := func(name, why string) { report(line, name, why) }
		if first, _, spaced := strings.Cut(span, " "); spaced {
			if strings.HasPrefix(first, "-") {
				ix.checkName(first, rep)
			}
			ix.checkShell(span, rep)
			// An expression or a chain (`Substrate.Begin → Graph.Edge`):
			// each selector in it, cut at its first bracket.
			for _, word := range strings.Fields(span) {
				word = strings.Trim(word, "(),;:")
				if i := strings.IndexAny(word, "({["); i >= 0 {
					word = word[:i]
				}
				if selectorRE.MatchString(word) && !ix.selector(strings.Split(word, ".")) && !ix.nonGo(word) {
					rep(word, "resolves to nothing")
				}
			}
		} else {
			ix.checkName(span, rep)
		}
	}
}

// checkCommandDoc checks a command's package comment: its indented usage
// lines as command lines, and every -flag of its prose as its own flag —
// or, after another command's name on the same line, as that one's.
func (ix *docIndex) checkCommandDoc(text, cmd string, report func(line int, name, why string)) {
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		body, ok := strings.CutPrefix(lines[i], "//")
		if !ok {
			continue
		}
		line := i + 1
		rep := func(name, why string) { report(line, name, why) }
		if strings.HasPrefix(body, "\t") {
			for strings.HasSuffix(body, "\\") && i+1 < len(lines) {
				i++
				body = strings.TrimSuffix(body, "\\") + " " + strings.TrimPrefix(lines[i], "//")
			}
			ix.checkShell(body, rep)
			continue
		}
		for _, m := range proseFlagRE.FindAllStringSubmatchIndex(body, -1) {
			owner := cmd
			for _, word := range strings.Fields(body[:m[2]]) {
				if word = strings.Trim(word, "(),.;:"); ix.flags[word] != nil {
					owner = word
				}
			}
			ix.checkFlag(owner, body[m[2]:m[3]], rep)
		}
	}
}

// checkShell checks one shell line: the flags after each command, and the
// test patterns of go test.
func (ix *docIndex) checkShell(line string, report func(name, why string)) {
	for _, seg := range shellSegments(line) {
		owner, start := "", 0
		for i, tok := range seg {
			if tok == "go" && i+1 < len(seg) {
				switch seg[i+1] {
				case "run":
					if i+2 < len(seg) && strings.HasPrefix(seg[i+2], "./cmd/") {
						owner, start = path.Base(seg[i+2]), i+3
					}
				case "test":
					ix.checkGoTest(seg[i+2:], report)
				}
				break
			}
			if base := path.Base(tok); !strings.Contains(tok, "cmd/") && ix.flags[base] != nil {
				owner, start = base, i+1
				break
			}
		}
		if owner == "" {
			continue
		}
		for _, tok := range seg[start:] {
			if flagRE.MatchString(tok) {
				ix.checkFlag(owner, tok, report)
			}
		}
	}
}

// checkFlag checks a -flag (or --flag) of cmd.
func (ix *docIndex) checkFlag(cmd, tok string, report func(name, why string)) {
	name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
	if !ix.flags[cmd][name] {
		report(strings.Split(tok, "=")[0], "is no flag of "+cmd)
	}
}

// checkGoTest checks that each alternative of a -run, -bench or -fuzz
// pattern matches some test function.
func (ix *docIndex) checkGoTest(args []string, report func(name, why string)) {
	for i := 0; i < len(args); i++ {
		var pattern string
		for _, f := range []string{"-run", "-bench", "-fuzz", "-test.run", "-test.bench"} {
			if args[i] == f && i+1 < len(args) {
				pattern = args[i+1]
			} else if v, ok := strings.CutPrefix(args[i], f+"="); ok {
				pattern = v
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			alt, _, _ = strings.Cut(strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"), "/")
			if alt == "" || alt == "." {
				continue
			}
			re, err := regexp.Compile(alt)
			matched := false
			for name := range ix.tests {
				if err == nil && re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				report(alt, "matches no test function")
			}
		}
	}
}

// checkName checks one span without spaces.
func (ix *docIndex) checkName(s string, report func(name, why string)) {
	if flagRE.MatchString(s) {
		if strings.HasPrefix(s, "--") {
			ix.checkFlag("run.sh", s, report)
			return
		}
		name, _, _ := strings.Cut(strings.TrimLeft(s, "-"), "=")
		for _, flags := range ix.flags {
			if flags[name] {
				return
			}
		}
		report(s, "is declared by no command")
		return
	}
	bare := strings.TrimLeft(s, "*&")
	for prev := ""; prev != bare; {
		prev, bare = bare, callRE.ReplaceAllString(bare, "")
	}
	if first, _, ok := strings.Cut(bare, "/"); ok && testFuncRE.MatchString(first) {
		bare = first // a subtest
	}
	switch {
	case testFuncRE.MatchString(bare):
		if !ix.tests[bare] {
			report(bare, "is no test function")
		}
	case optionRE.MatchString(bare):
		if !ix.options[bare] {
			report(bare, "is no option function")
		}
	case selectorRE.MatchString(bare):
		if !ix.selector(strings.Split(bare, ".")) && !ix.nonGo(bare) {
			report(bare, "resolves to nothing")
		}
	case exportedRE.MatchString(bare):
		if !ix.declared[bare] && !ix.literals[bare] {
			report(bare, "is declared nowhere")
		}
	case dottedRE.MatchString(s):
		if !ix.nonGo(s) {
			report(s, "is no string literal, file or metric")
		}
	case pathRE.MatchString(s) && strings.Contains(s, "/"):
		first, _, _ := strings.Cut(strings.TrimPrefix(s, "./"), "/")
		if !ix.topDirs[first] {
			return
		}
		for _, p := range expandBraces(strings.TrimSuffix(strings.TrimPrefix(s, "./"), "/")) {
			if !ix.files[p] {
				report(s, "is no file")
				return
			}
		}
	}
}

// nonGo reports whether a dotted name is a string literal, a file or a
// metric.
func (ix *docIndex) nonGo(s string) bool {
	return ix.literals[s] || ix.files[s] || ix.metrics[s]
}

// selector reports whether parts name a member chain: a package's
// declaration, or a type of the module, then a field or method of each
// one's type in turn (of a function's first result).
func (ix *docIndex) selector(parts []string) bool {
	for _, p := range ix.pkgs[parts[0]] {
		if member(p, p.Scope().Lookup(parts[1]), parts[2:]) {
			return true
		}
	}
	for _, tn := range ix.types[parts[0]] {
		if member(tn.Pkg(), tn, parts[1:]) {
			return true
		}
	}
	return false
}

func member(pkg *types.Package, obj types.Object, rest []string) bool {
	if obj == nil {
		return false
	}
	if len(rest) == 0 {
		return true
	}
	t := obj.Type()
	if sig, ok := t.(*types.Signature); ok {
		if sig.Results().Len() == 0 {
			return false
		}
		t = sig.Results().At(0).Type()
	}
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg()
	}
	next, _, _ := types.LookupFieldOrMethod(t, true, pkg, rest[0])
	return member(pkg, next, rest[1:])
}

// shellSegments splits a shell line into the words of each simple command:
// quotes are removed, and |, &, ;, ( and ) end a command; # starts a
// comment.
func shellSegments(line string) [][]string {
	var segs [][]string
	var seg []string
	var word strings.Builder
	inWord := false
	endWord := func() {
		if inWord {
			seg = append(seg, word.String())
			word.Reset()
			inWord = false
		}
	}
	endSeg := func() {
		endWord()
		if len(seg) > 0 {
			segs = append(segs, seg)
			seg = nil
		}
	}
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '#' && !inWord:
			endSeg()
			return segs
		case strings.ContainsRune("|&;()", r):
			endSeg()
		case r == ' ' || r == '\t':
			endWord()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	endSeg()
	return segs
}

// expandBraces expands one level of {a,b} alternatives.
func expandBraces(s string) []string {
	m := braceRE.FindStringSubmatchIndex(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[m[2]:m[3]], ",") {
		out = append(out, expandBraces(s[:m[0]]+alt+s[m[1]:])...)
	}
	return out
}

// withSource returns a copy of the inventory in which one file of the
// package in dir reads as edit makes it; only that package is checked
// again, and the type errors the edit leaves (callers of what it renamed)
// are ignored.
func (inv *inventory) withSource(t *testing.T, dir, name string, edit func(string) string) *inventory {
	t.Helper()
	file := filepath.Join(dir, name)
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(inv.fset, file, edit(string(src)), parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	mut, _ := inv.withFiles(dir, func(files []*ast.File) []*ast.File {
		for i, g := range files {
			if inv.fset.Position(g.Package).Filename == file {
				files[i] = f
			}
		}
		return files
	})
	return mut
}
