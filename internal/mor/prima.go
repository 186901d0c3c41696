// Package mor implements PRIMA (paper ref [2], Odabasioglu-Celik-Pileggi):
// passive reduced-order interconnect macromodeling by block-Arnoldi
// Krylov projection. In the paper's flow the coupled RC network is
// reduced once and the reduced model is reused across all driver
// simulations of the superposition flow (the efficiency argument of its
// Section 1); internal/delaynoise reduces each linear run's assembled
// system when Options.PRIMAOrder is positive.
package mor

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// ROM is a reduced-order model of an MNA system together with the
// projection basis needed to recover node voltages.
type ROM struct {
	Reduced *mna.System
	V       *linalg.Matrix // n x q projection basis, x ~ V z
	full    *mna.System
	Order   int
}

// Reduce computes a PRIMA reduced-order model of order q (number of
// retained states). q is rounded up to a whole number of block moments;
// if q >= n the identity projection is used (no reduction).
//
// Requirements: G must be nonsingular (every node needs a resistive path
// to ground — holding resistances provide this in the noise flow).
func Reduce(sys *mna.System, q int) (*ROM, error) {
	return ReduceContext(context.Background(), sys, q)
}

// ReduceContext is Reduce with cancellation support, checked once per
// block-Krylov iteration (each iteration is a dense multi-RHS solve, the
// expensive unit of work here).
func ReduceContext(ctx context.Context, sys *mna.System, q int) (*ROM, error) {
	n := sys.NumStates()
	p := sys.NumInputs()
	if p == 0 {
		return nil, noiseerr.Invalidf("mor: system has no inputs")
	}
	if q <= 0 {
		return nil, noiseerr.Invalidf("mor: order must be positive, got %d", q)
	}
	if q >= n {
		// Identity projection: the "reduction" is the original system.
		return &ROM{Reduced: sys, V: linalg.Identity(n), full: sys, Order: n}, nil
	}
	gsolve, err := factorG(sys.G)
	if err != nil {
		return nil, noiseerr.Numericalf("mor: G singular (floating node?): %w", err)
	}
	// Block Krylov: R = G^-1 B; X_{k+1} = G^-1 C X_k.
	blocks := (q + p - 1) / p
	basis := linalg.NewMatrix(n, blocks*p)
	x := gsolve.SolveMatrix(sys.B)
	col := 0
	for k := 0; k < blocks; k++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, noiseerr.Canceled(fmt.Errorf("mor: canceled at block %d of %d: %w", k, blocks, err))
			}
		}
		for c := 0; c < p; c++ {
			basis.SetCol(col, x.Col(c))
			col++
		}
		if k < blocks-1 {
			x = gsolve.SolveMatrix(sys.C.Mul(x))
		}
	}
	kept := linalg.OrthonormalizeMGS(basis, 1e-10)
	if kept == 0 {
		return nil, noiseerr.Numericalf("mor: empty Krylov basis")
	}
	if kept > q {
		kept = q
	}
	v := linalg.SubColumns(basis, kept)
	vt := v.Transpose()
	gr := vt.Mul(sys.G.Mul(v))
	cr := vt.Mul(sys.C.Mul(v))
	br := vt.Mul(sys.B)
	red, err := mna.NewSystem(gr, cr, br, sys.Inputs, nil)
	if err != nil {
		return nil, err
	}
	return &ROM{Reduced: red, V: v, full: sys, Order: kept}, nil
}

// gSolver abstracts the repeated multi-RHS G-solves of the block-Krylov
// iteration over the two factorization backends.
type gSolver interface {
	SolveMatrix(*linalg.Matrix) *linalg.Matrix
}

// gBandedMin is the system size above which factorG tries the sparse
// banded-Cholesky path before dense LU.
const gBandedMin = 32

// factorG factors the (symmetric, for MNA-stamped circuits) conductance
// matrix once for the Krylov recurrence: RCM-reordered banded Cholesky
// when the system is large and narrow-banded, dense LU otherwise or
// when the Cholesky rejects the matrix.
func factorG(g *linalg.Matrix) (gSolver, error) {
	if n := g.Rows; n >= gBandedMin {
		sp := linalg.FromDense(g)
		perm := sp.RCM()
		if 4*(sp.Bandwidth(perm)+1) <= n {
			if f, err := linalg.FactorBandedChol(sp, perm); err == nil {
				return f, nil
			}
		}
	}
	return linalg.FactorLU(g)
}

// Run integrates the reduced model and returns a result from which node
// voltages of the original network can be recovered.
func (r *ROM) Run(opt lsim.Options) (*Result, error) {
	return r.RunContext(context.Background(), opt)
}

// RunContext is Run with cancellation: ctx aborts the reduced-space
// integration between time steps.
func (r *ROM) RunContext(ctx context.Context, opt lsim.Options) (*Result, error) {
	res, err := lsim.RunContext(ctx, r.Reduced, opt)
	if err != nil {
		return nil, err
	}
	return &Result{rom: r, res: res}, nil
}

// Result wraps a reduced-space simulation.
type Result struct {
	rom *ROM
	res *lsim.Result
}

// Voltage recovers the waveform at an original network node by projecting
// the reduced states through the basis.
func (rr *Result) Voltage(node string) (*waveform.PWL, error) {
	i, err := rr.rom.full.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	q := rr.rom.Order
	times := rr.res.Times
	v := make([]float64, len(times))
	row := make([]float64, q)
	for c := 0; c < q; c++ {
		row[c] = rr.rom.V.At(i, c)
	}
	for k := range times {
		s := 0.0
		for c := 0; c < q; c++ {
			s += row[c] * rr.res.States.At(k, c)
		}
		v[k] = s
	}
	return waveform.New(append([]float64(nil), times...), v), nil
}
