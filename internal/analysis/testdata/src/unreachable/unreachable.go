// Package unreachable is an analysistest fixture for the unreachable
// analyzer. The package is importable, so its exported functions are entry
// points; so are its init function and its package initializer. A declared
// function that none of them reaches is reported, unless a justified
// suppression names what uses it.
package unreachable

import (
	"fmt"
	"net/http"
)

// API is an entry point: the package's exported API.
func API() *http.Client {
	called()
	fmt.Println(label{})
	return &http.Client{Transport: transport{}}
}

//asalint:unreachable stale: API calls it // want `unused //asalint:unreachable suppression`
func called() {}

func dead() {} // want `dead is unreachable`

// deadCaller reaches deadCallee, but nothing reaches deadCaller.
func deadCaller() { deadCallee() } // want `deadCaller is unreachable`

func deadCallee() {} // want `deadCallee is unreachable`

// experiments names a function as a value in a package-level initializer.
var experiments = map[string]func(){"table": fromTable}

func fromTable() {}

func init() { fromInit() }

func fromInit() {}

// label reaches fmt as any: fmt calls String through fmt.Stringer, and
// nothing outside the package can call hidden.
type label struct{}

func (label) String() string { return "label" }

func (label) hidden() {} // want `label\.hidden is unreachable`

// transport reaches net/http as an http.RoundTripper.
type transport struct{}

func (transport) RoundTrip(*http.Request) (*http.Response, error) { return nil, nil }

//asalint:unreachable test oracle: the fixture's suppression case
func oracle() {}
