package lint_test

import (
	"testing"

	"github.com/pangolin-go/pangolin/internal/lint"
	"github.com/pangolin-go/pangolin/internal/lint/linttest"
)

func TestTxWrite(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.TxWrite, "txwrite")
}

func TestErrWrap(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.ErrWrap, "errwrap")
}

func TestStopBool(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.StopBool, "stopbool")
}
