package ctxflow_test

import (
	"testing"

	"qbeep/internal/analysis/analysistest"
	"qbeep/internal/analysis/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "a", "cmdfix", "qbeep")
}
