package flowercdn

import (
	"bufio"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferences: a Go comment cites the design notes by their file
// name and a quoted heading, which must be one of theirs, so a renamed or
// deleted section cannot leave a citation pointing nowhere; a citation that
// names no heading fails too. A citation may wrap across comment lines.
func TestDesignReferences(t *testing.T) {
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	headings := map[string]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); strings.HasPrefix(line, "#") {
			headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	cite := regexp.MustCompile(`DESIGN\.md( "([^"]*)")?`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			text := strings.Join(strings.Fields(group.Text()), " ")
			for _, m := range cite.FindAllStringSubmatch(text, -1) {
				refs++
				if !headings[m[2]] {
					t.Errorf("%s: %q names no heading of DESIGN.md", path, m[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs < 5 {
		t.Fatalf("found %d DESIGN.md citations in Go comments; the walk missed some", refs)
	}
}
