/* Inner loop of maximal-violating-pair SMO for the SVDD dual.
 *
 * The compiled twin of ``solver._run_python``: from the current state it
 * takes pairwise steps until the maximal violation is at most kkt_tol or
 * ``iterations`` reaches max_iterations, and returns ``iterations``. The
 * caller owns the start, the fresh re-derivation of the gradient and the
 * convergence error. Every rounding equals the numpy loop's, so the two
 * give the same alphas bit for bit:
 *
 *   - the gradient update keeps numpy's order, d = K_i[k] - K_j[k];
 *     d *= 2 clipped; g[k] += d, and the library is built with
 *     -ffp-contract=off, so no step is fused into an FMA;
 *   - i and j are picked as numpy's argmin and argmax pick them: the first
 *     index on ties, and the first NaN when there is one;
 *   - min(step, room_i, a_j) keeps Python's rule: a later value replaces
 *     the current one only when it is strictly smaller.
 *
 * The gradient update and the choice of the next pair share one pass
 * over n. K is the exactly symmetric n x n Gram matrix, row-major.
 *
 * The pass exists three times: scalar, and one vector body instantiated at
 * 8 lanes for AVX-512F and at 4 for AVX2. ``svdd_smo_level`` picks one; at
 * load it is the best the CPU supports, so the library is built without
 * -m flags and runs on any x86-64 (and scalar-only elsewhere).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's argmin and argmax rule: replace when not (v >= best), resp. not
 * (v <= best), and stop replacing once best is NaN */
#define TAKE_MIN(v, best) (!((v) >= (best)) && (best) == (best))
#define TAKE_MAX(v, best) (!((v) <= (best)) && (best) == (best))

enum { LEVEL_SCALAR, LEVEL_AVX2, LEVEL_AVX512F };

/* The pass svdd_smo_run takes, one of the LEVEL_ values. Tests may lower
 * it to pin each pass; a level above svdd_smo_cpu_level() is not safe. */
int svdd_smo_level = LEVEL_SCALAR;

#if defined(__GNUC__) && defined(__x86_64__)
#define HAVE_X86_PASSES 1
#endif

int svdd_smo_cpu_level(void)
{
#ifdef HAVE_X86_PASSES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return LEVEL_AVX512F;
    if (__builtin_cpu_supports("avx2"))
        return LEVEL_AVX2;
#endif
    return LEVEL_SCALAR;
}

/* the compiler that built this library, for run manifests */
const char *svdd_smo_compiler(void)
{
#ifdef __clang__
    return "clang " __clang_version__;
#else
    return "gcc " __VERSION__; /* the constructor below needs GNU C anyway */
#endif
}

__attribute__((constructor)) static void choose_level(void)
{
    svdd_smo_level = svdd_smo_cpu_level();
}

/* (i, j) over the current gradient, without touching it */
static void select_pair(const double *grad, const double *up_pen, const double *low_pen,
                        int64_t n, int64_t *i_out, int64_t *j_out)
{
    int64_t i = 0, j = 0, k;
    double lo = grad[0] + up_pen[0];
    double hi = grad[0] + low_pen[0];

    for (k = 1; k < n; k++) {
        const double up = grad[k] + up_pen[k];
        const double low = grad[k] + low_pen[k];
        if (TAKE_MIN(up, lo)) { lo = up; i = k; }
        if (TAKE_MAX(low, hi)) { hi = low; j = k; }
    }
    *i_out = i;
    *j_out = j;
}

/* grad += scale (K_i - K_j), then the next (i, j) over the updated gradient;
 * nonzero when the choice has to be made again by select_pair */
typedef int (*pass_fn)(const double *K_i, const double *K_j, double scale, double *grad,
                       const double *up_pen, const double *low_pen, int64_t n,
                       int64_t *i_out, int64_t *j_out);

static int pass_scalar(const double *K_i, const double *K_j, double scale, double *grad,
                       const double *up_pen, const double *low_pen, int64_t n,
                       int64_t *i_out, int64_t *j_out)
{
    int64_t i = 0, j = 0, k;
    double d = K_i[0] - K_j[0];
    d *= scale;
    grad[0] += d;
    double lo = grad[0] + up_pen[0];
    double hi = grad[0] + low_pen[0];

    for (k = 1; k < n; k++) {
        d = K_i[k] - K_j[k];
        d *= scale;
        grad[k] += d;
        const double up = grad[k] + up_pen[k];
        const double low = grad[k] + low_pen[k];
        if (TAKE_MIN(up, lo)) { lo = up; i = k; }
        if (TAKE_MAX(low, hi)) { hi = low; j = k; }
    }
    *i_out = i;
    *j_out = j;
    return 0;
}

#ifdef HAVE_X86_PASSES
/* The vector pass, for n >= LANES. Lane l takes the indices k = l (mod
 * LANES) in increasing order and keeps its first minimum (maximum) with a
 * strict < (>). The lanes then merge to the smallest index among equal
 * values, -0.0 == +0.0 included, which is numpy's first index; the tail
 * continues with the same strict rule. A strict compare never takes a NaN,
 * so when a NaN is seen anywhere, the pass asks for the choice to be made
 * again by select_pair over the updated gradient. Loads and stores go
 * through memcpy: rows and the gradient need no alignment. */
#define DEFINE_VECTOR_PASS(NAME, LANES, ISA)                                                \
__attribute__((target(ISA)))                                                                \
static int NAME(const double *K_i, const double *K_j, double scale, double *grad,           \
                const double *up_pen, const double *low_pen, int64_t n,                     \
                int64_t *i_out, int64_t *j_out)                                             \
{                                                                                           \
    typedef double vd __attribute__((vector_size(8 * (LANES))));                           \
    typedef int64_t vi __attribute__((vector_size(8 * (LANES))));                          \
    const int64_t end = n - n % (LANES);                                                    \
    vd a, b, g, pu, pl, lo, hi;                                                             \
    vi lane, lo_at, hi_at, nan;                                                             \
    int64_t k, l;                                                                           \
                                                                                            \
    for (l = 0; l < (LANES); l++)                                                           \
        lane[l] = l;                                                                        \
    /* +inf (-inf) at index l until lane l sees a smaller (larger) value */                 \
    lo = (vd){0} + INFINITY;                                                                \
    hi = (vd){0} - INFINITY;                                                                \
    lo_at = hi_at = lane;                                                                   \
    nan = (vi){0};                                                                          \
    for (k = 0; k < end; k += (LANES)) {                                                    \
        memcpy(&a, K_i + k, sizeof a);                                                      \
        memcpy(&b, K_j + k, sizeof b);                                                      \
        memcpy(&g, grad + k, sizeof g);                                                     \
        memcpy(&pu, up_pen + k, sizeof pu);                                                 \
        memcpy(&pl, low_pen + k, sizeof pl);                                                \
        a -= b;                                                                             \
        a *= scale;                                                                         \
        g += a;                                                                             \
        memcpy(grad + k, &g, sizeof g);                                                     \
        const vd up = g + pu;                                                               \
        const vd low = g + pl;                                                              \
        const vi at = lane + k;                                                             \
        const vi lt = (vi)(up < lo);                                                        \
        const vi gt = (vi)(low > hi);                                                       \
        lo = (vd)(((vi)up & lt) | ((vi)lo & ~lt));                                          \
        hi = (vd)(((vi)low & gt) | ((vi)hi & ~gt));                                         \
        lo_at = (at & lt) | (lo_at & ~lt);                                                  \
        hi_at = (at & gt) | (hi_at & ~gt);                                                  \
        nan |= (vi)(up != up) | (vi)(low != low);                                           \
    }                                                                                       \
                                                                                            \
    double best_lo = lo[0], best_hi = hi[0];                                                \
    int64_t i = lo_at[0], j = hi_at[0], any_nan = nan[0];                                   \
    for (l = 1; l < (LANES); l++) {                                                         \
        if (lo[l] < best_lo || (lo[l] == best_lo && lo_at[l] < i)) {                        \
            best_lo = lo[l];                                                                \
            i = lo_at[l];                                                                   \
        }                                                                                   \
        if (hi[l] > best_hi || (hi[l] == best_hi && hi_at[l] < j)) {                        \
            best_hi = hi[l];                                                                \
            j = hi_at[l];                                                                   \
        }                                                                                   \
        any_nan |= nan[l];                                                                  \
    }                                                                                       \
    for (k = end; k < n; k++) {                                                             \
        double d = K_i[k] - K_j[k];                                                         \
        d *= scale;                                                                         \
        grad[k] += d;                                                                       \
        const double up = grad[k] + up_pen[k];                                              \
        const double low = grad[k] + low_pen[k];                                            \
        any_nan |= up != up || low != low;                                                  \
        if (up < best_lo) { best_lo = up; i = k; }                                          \
        if (low > best_hi) { best_hi = low; j = k; }                                        \
    }                                                                                       \
    *i_out = i;                                                                             \
    *j_out = j;                                                                             \
    return any_nan != 0;                                                                    \
}

DEFINE_VECTOR_PASS(pass_avx512f, 8, "avx512f")
DEFINE_VECTOR_PASS(pass_avx2, 4, "avx2")
#endif

static pass_fn choose_pass(int64_t n)
{
#ifdef HAVE_X86_PASSES
    if (svdd_smo_level == LEVEL_AVX512F && n >= 8)
        return pass_avx512f;
    if (svdd_smo_level == LEVEL_AVX2 && n >= 4)
        return pass_avx2;
#endif
    (void)n;
    return pass_scalar;
}

int64_t svdd_smo_run(const double *K, const double *diag, double *alpha, double *grad,
                     double *up_pen, double *low_pen, int64_t n, double C,
                     double kkt_tol, double curvature_floor, int64_t max_iterations,
                     int64_t iterations)
{
    const pass_fn pass = choose_pass(n);
    int64_t i, j;

    /* selection only: a zero-step update would turn -0.0 into +0.0 */
    select_pair(grad, up_pen, low_pen, n, &i, &j);
    while (iterations < max_iterations) {
        const double violation = grad[j] - grad[i];
        if (violation <= kkt_tol)
            break;

        const double *K_i = K + i * n;
        const double *K_j = K + j * n;
        const double curvature = diag[i] + diag[j] - 2.0 * K_i[j];
        const double step = curvature > curvature_floor ? violation / (2.0 * curvature)
                                                        : INFINITY;
        const double a_i = alpha[i];
        const double a_j = alpha[j];
        const double room_i = C - a_i;
        double clipped = step;
        if (room_i < clipped)
            clipped = room_i;
        if (a_j < clipped)
            clipped = a_j;
        const double new_i = clipped >= room_i ? C : a_i + clipped;
        const double new_j = clipped >= a_j ? 0.0 : a_j - clipped;
        alpha[i] = new_i;
        alpha[j] = new_j;
        up_pen[i] = new_i < C ? 0.0 : INFINITY;
        up_pen[j] = new_j < C ? 0.0 : INFINITY;
        low_pen[i] = new_i > 0.0 ? 0.0 : -INFINITY;
        low_pen[j] = new_j > 0.0 ? 0.0 : -INFINITY;

        if (pass(K_i, K_j, 2.0 * clipped, grad, up_pen, low_pen, n, &i, &j))
            select_pair(grad, up_pen, low_pen, n, &i, &j);
        iterations++;
    }
    return iterations;
}
