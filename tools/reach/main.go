// Command reach lists the function declarations of the module's non-main
// packages that no program of the module links.
//
// It builds every main package with inlining off (-gcflags=all=-l), so a
// function the linker keeps has a text symbol of its own, and collects the
// text symbols of all the binaries. It then parses the GoFiles that go list
// reports for this platform (test files and files a build constraint leaves
// out are not parsed) and prints, sorted, each function and method whose
// symbol no binary carries. A generic is reached when any of its
// instantiations is.
//
// Run it from the module root: go run ./tools/reach. make reach-check diffs
// its output against unreached.golden, where each line names why the
// declaration stays although no program links it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "reach")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	linked, err := linkedSymbols(dir)
	if err != nil {
		return err
	}
	decls, err := declarations()
	if err != nil {
		return err
	}
	var out []string
	for _, sym := range decls {
		if !linked[sym] {
			out = append(out, sym)
		}
	}
	sort.Strings(out)
	for _, sym := range out {
		fmt.Fprintln(w, sym)
	}
	return nil
}

// linkedSymbols builds every main package into dir and returns the text
// symbols of the binaries, with type arguments and ABI suffixes cut so that
// they compare equal to the names declarations produce.
func linkedSymbols(dir string) (map[string]bool, error) {
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w", err)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "<addr> <type> <name>"; a name may itself hold spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(strings.TrimSuffix(f[2], ".abi0"))] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// stripTypeArgs cuts every bracketed type-argument list from a symbol:
// pkg.(*Ring[go.shape.int64]).Push becomes pkg.(*Ring).Push.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations returns the linker symbol of every function and method
// declared in the module's non-main packages, init functions aside.
func declarations() ([]string, error) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var syms []string
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var pkg struct {
			ImportPath, Name, Dir string
			GoFiles               []string
		}
		if err := dec.Decode(&pkg); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		if pkg.Name == "main" {
			continue
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "_") {
					continue
				}
				syms = append(syms, pkg.ImportPath+"."+receiver(fd)+fd.Name.Name)
			}
		}
	}
	return syms, nil
}

// receiver renders a method's receiver as the linker spells it, "T." or
// "(*T).", with any type parameters dropped; a function has none.
func receiver(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}
