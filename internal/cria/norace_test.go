//go:build !race

package cria_test

const raceEnabled = false
