package docs

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI workflow whose name-selected test steps are checked.
const ciWorkflow = "../../.github/workflows/ci.yml"

// repoRoot is the repository root relative to this package.
const repoRoot = "../.."

// goTestValueFlags are the go test flags that take a separate value
// argument, so the value is not mistaken for a package path.
var goTestValueFlags = map[string]bool{
	"-run": true, "-fuzz": true, "-bench": true, "-benchtime": true,
	"-fuzztime": true, "-timeout": true, "-count": true, "-cpu": true,
	"-parallel": true, "-tags": true, "-coverprofile": true,
}

// selection is one -run or -fuzz pattern of a CI go test command, with the
// packages the command lists.
type selection struct {
	line    int
	flag    string
	pattern string
	pkgs    []string
}

// TestCISelectorsMatchTests keeps the name-selected CI steps honest: every
// |-alternative of every -run and -fuzz pattern in the CI workflow (other
// than '^$', which deliberately selects nothing) must match at least one
// Test, Fuzz or Example function declared in the _test.go files of the
// packages its command lists. A renamed or deleted test otherwise leaves a
// step that silently runs nothing.
func TestCISelectorsMatchTests(t *testing.T) {
	sels := ciSelections(t)
	flags := map[string]int{}
	for _, sel := range sels {
		flags[sel.flag]++
	}
	if flags["-run"] == 0 || flags["-fuzz"] == 0 {
		t.Fatalf("found %d -run and %d -fuzz patterns in %s; the workflow parser is broken", flags["-run"], flags["-fuzz"], ciWorkflow)
	}
	names := map[string][]string{} // package dir -> declared test names
	for _, sel := range sels {
		var declared []string
		for _, pkg := range sel.pkgs {
			if _, ok := names[pkg]; !ok {
				names[pkg] = testNames(t, pkg)
			}
			declared = append(declared, names[pkg]...)
		}
		for _, alt := range splitAlternatives(sel.pattern) {
			// go test matches a slash-separated pattern level by level;
			// the first level selects among the declared functions.
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml:%d: %s %q: alternative %q: %v", sel.line, sel.flag, sel.pattern, alt, err)
				continue
			}
			if !matchesAny(re, declared) {
				t.Errorf("ci.yml:%d: %s %q: alternative %q matches no test in %v", sel.line, sel.flag, sel.pattern, alt, sel.pkgs)
			}
		}
	}
}

// ciSelections scans the workflow for go test commands and returns their
// -run and -fuzz patterns, skipping '^$'.
func ciSelections(t *testing.T) []selection {
	t.Helper()
	f, err := os.Open(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []selection
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range strings.Split(line, "&&") {
			_, args, ok := strings.Cut(cmd, "go test ")
			if !ok {
				continue
			}
			var pats []selection
			var pkgs []string
			toks := shellWords(args)
			for i := 0; i < len(toks); i++ {
				tok := toks[i]
				if tok == "|" || tok == ">" || tok == ";" {
					break
				}
				name, val, hasVal := strings.Cut(tok, "=")
				switch {
				case strings.HasPrefix(tok, "-"):
					if !hasVal && goTestValueFlags[name] && i+1 < len(toks) {
						i++
						val = toks[i]
					}
					if (name == "-run" || name == "-fuzz") && val != "^$" {
						pats = append(pats, selection{line: n, flag: name, pattern: val})
					}
				default:
					pkgs = append(pkgs, tok)
				}
			}
			for _, p := range pats {
				p.pkgs = pkgs
				out = append(out, p)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// shellWords splits a command line on blanks, honouring single and double
// quotes — enough shell for the workflow's go test lines.
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// splitAlternatives splits a regular expression on its top-level |
// operators, leaving alternations inside parentheses or brackets intact.
func splitAlternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// testNames returns the Test, Fuzz and Example functions declared in the
// _test.go files of the package at pkg: a go test package argument such as
// "./internal/sim/", "." or "./...", relative to the repository root, where
// the workflow's name-selected steps run.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	dir := filepath.Join(repoRoot, strings.TrimSuffix(pkg, "..."))
	var dirs []string
	if strings.HasSuffix(pkg, "...") {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		dirs = []string{dir}
	}
	var names []string
	for _, d := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, d, func(fi os.FileInfo) bool {
			return strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", d, err)
		}
		for _, p := range pkgs {
			for _, file := range p.Files {
				for _, decl := range file.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isTestName(fn.Name.Name) {
						names = append(names, fn.Name.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("package %s declares no tests", pkg)
	}
	return names
}

// isTestName reports whether name is a Test, Fuzz or Example function name.
func isTestName(name string) bool {
	for _, prefix := range []string{"Test", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
