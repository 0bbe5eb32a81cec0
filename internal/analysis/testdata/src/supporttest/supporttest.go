// Package supporttest is an analysistest fixture: a test-support package,
// named by the httptest convention, whose helpers only tests call. The
// unreachable analyzer does not report in it.
package supporttest

func helper() {}
