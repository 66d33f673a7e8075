package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestListMatchesREADME checks the README's "Registered schedulers"
// table against -list: the same backends, in the same order, with the
// same capability tokens.
func TestListMatchesREADME(t *testing.T) {
	var out bytes.Buffer
	listSchedulers(&out)
	var list []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && line[0] != ' ' {
			list = append(list, strings.Join(strings.Fields(line), " "))
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Registered schedulers\n")
	if !ok {
		t.Fatal(`README has no "### Registered schedulers" section`)
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		table = append(table, name+" "+strings.TrimSpace(cells[2]))
	}

	if !reflect.DeepEqual(table, list) {
		t.Errorf("README scheduler table (name and capabilities) disagrees with woolrun -list:\nREADME:\n  %s\n-list:\n  %s",
			strings.Join(table, "\n  "), strings.Join(list, "\n  "))
	}
}
