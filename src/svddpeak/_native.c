/* The compiled library of svddpeak, built on first use by ``_native.py``.
 * It exports four functions, none doing I/O: each computes over memory its
 * caller owns. ``svdd_smo_run`` is the SMO inner loop, ``svdd_csv_rows``
 * the cell writer of ``datagen.write_csv_blocks``, ``svdd_csv_floats`` the
 * body parser of ``cli.read_csv_dataset``, and ``svdd_sqdist`` the squared
 * distances of ``kernel.squared_distances``.
 * Each has a Python twin that runs where the library cannot be built; the
 * reader's is the row loop ``cli._read_csv_rows``, the distances' the
 * numpy loop ``kernel._numpy_squared_distances``.
 *
 * ``svdd_smo_run`` is the compiled twin of ``solver._run_python``, whose
 * docstring states the loop's contract and whose steps it takes; the
 * missing-row rule is ``solver._KernelRows``'s. Every rounding equals the
 * numpy loop's, so the two give the same alphas bit for bit:
 *
 *   - the gradient update keeps numpy's order, d = K_i[k] - K_j[k];
 *     d *= 2 clipped; g[k] += d, and the library is built with
 *     -ffp-contract=off, so no step is fused into an FMA;
 *   - i and j are picked as numpy's argmin and argmax pick them on finite
 *     values, the first index on ties (``solver._solve_smo`` raises on a
 *     gradient that is not finite; a NaN here only picks some valid index);
 *   - min(step, room_i, a_j) keeps Python's rule: a later value replaces
 *     the current one only when it is strictly smaller.
 *
 * The gradient update and the choice of the next pair share one pass
 * over n. A call steps from the pair (i, j) in ``pair`` and writes the
 * next one back, so a call resumed after a missing row scans nothing.
 * K is the solver's n x n row buffer, row-major.
 *
 * The pass exists twice: scalar, and an 8-lane vector pass that runs when
 * the CPU has AVX-512F and n >= 8 (``svdd_smo_level``, set at load); every
 * other case runs the scalar pass. The library is built without -m flags,
 * so it runs on any x86-64 (and scalar-only elsewhere).
 */

#define _GNU_SOURCE /* newlocale and strtod_l */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#ifdef __APPLE__
#include <xlocale.h>
#endif

/* numpy's first index: replace only with a strictly smaller (larger) value.
 * Spelled as an unlikely branch: on a 2-vCPU Xeon with gcc 12, the scalar
 * pass of a polygon-600 sweep took 0.48 s so, 0.59 s without the hint and
 * 0.63 s as (v) < (best), which compiles to minsd and cmov, a dependency
 * chain through best */
#define TAKE_MIN(v, best) __builtin_expect(!((v) >= (best)), 0)
#define TAKE_MAX(v, best) __builtin_expect(!((v) <= (best)), 0)

enum { LEVEL_SCALAR, LEVEL_AVX512F };

/* The pass svdd_smo_run takes, one of the LEVEL_ values. Tests may lower
 * it to pin each pass; a level above svdd_smo_cpu_level() is not safe. */
int svdd_smo_level = LEVEL_SCALAR;

#if defined(__GNUC__) && defined(__x86_64__)
#define HAVE_VECTOR_PASS 1
#endif

int svdd_smo_cpu_level(void)
{
#ifdef HAVE_VECTOR_PASS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return LEVEL_AVX512F;
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

/* grad += scale (K_i - K_j), then the next (i, j) over the updated gradient */
typedef void (*pass_fn)(const double *K_i, const double *K_j, double scale, double *grad,
                        const double *up_pen, const double *low_pen, int64_t n,
                        int64_t *i_out, int64_t *j_out);

static void pass_scalar(const double *K_i, const double *K_j, double scale, double *grad,
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
}

#ifdef HAVE_VECTOR_PASS
/* one AVX-512F register of doubles */
enum { LANES = 8 };

/* The vector pass, for n >= LANES. Lane l takes the indices k = l (mod
 * LANES) in increasing order and keeps its first minimum (maximum) with a
 * strict < (>). The lanes then merge to the smallest index among equal
 * values, -0.0 == +0.0 included, which is numpy's first index; the tail
 * continues with the same strict rule. Loads and stores go through
 * memcpy: rows and the gradient need no alignment. */
__attribute__((target("avx512f")))
static void pass_avx512f(const double *K_i, const double *K_j, double scale, double *grad,
                         const double *up_pen, const double *low_pen, int64_t n,
                         int64_t *i_out, int64_t *j_out)
{
    typedef double vd __attribute__((vector_size(8 * LANES)));
    typedef int64_t vi __attribute__((vector_size(8 * LANES)));
    const int64_t end = n - n % LANES;
    vd a, b, g, pu, pl, lo, hi;
    vi lane, lo_at, hi_at;
    int64_t k, l;

    for (l = 0; l < LANES; l++)
        lane[l] = l;
    /* +inf (-inf) at index l until lane l sees a smaller (larger) value */
    lo = (vd){0} + INFINITY;
    hi = (vd){0} - INFINITY;
    lo_at = hi_at = lane;
    for (k = 0; k < end; k += LANES) {
        memcpy(&a, K_i + k, sizeof a);
        memcpy(&b, K_j + k, sizeof b);
        memcpy(&g, grad + k, sizeof g);
        memcpy(&pu, up_pen + k, sizeof pu);
        memcpy(&pl, low_pen + k, sizeof pl);
        a -= b;
        a *= scale;
        g += a;
        memcpy(grad + k, &g, sizeof g);
        const vd up = g + pu;
        const vd low = g + pl;
        const vi at = lane + k;
        const vi lt = (vi)(up < lo);
        const vi gt = (vi)(low > hi);
        lo = (vd)(((vi)up & lt) | ((vi)lo & ~lt));
        hi = (vd)(((vi)low & gt) | ((vi)hi & ~gt));
        lo_at = (at & lt) | (lo_at & ~lt);
        hi_at = (at & gt) | (hi_at & ~gt);
    }

    double best_lo = lo[0], best_hi = hi[0];
    int64_t i = lo_at[0], j = hi_at[0];
    for (l = 1; l < LANES; l++) {
        if (lo[l] < best_lo || (lo[l] == best_lo && lo_at[l] < i)) {
            best_lo = lo[l];
            i = lo_at[l];
        }
        if (hi[l] > best_hi || (hi[l] == best_hi && hi_at[l] < j)) {
            best_hi = hi[l];
            j = hi_at[l];
        }
    }
    for (k = end; k < n; k++) {
        double d = K_i[k] - K_j[k];
        d *= scale;
        grad[k] += d;
        const double up = grad[k] + up_pen[k];
        const double low = grad[k] + low_pen[k];
        if (up < best_lo) { best_lo = up; i = k; }
        if (low > best_hi) { best_hi = low; j = k; }
    }
    *i_out = i;
    *j_out = j;
}
#endif

static pass_fn choose_pass(int64_t n)
{
#ifdef HAVE_VECTOR_PASS
    if (svdd_smo_level == LEVEL_AVX512F && n >= LANES)
        return pass_avx512f;
#endif
    (void)n;
    return pass_scalar;
}

int64_t svdd_smo_run(const double *K, double *alpha, double *grad,
                     double *up_pen, double *low_pen, const uint8_t *filled, int64_t *pair,
                     int64_t n, double C, double kkt_tol, double curvature_floor,
                     int64_t max_iterations, int64_t iterations, int64_t *missing)
{
    const pass_fn pass = choose_pass(n);
    int64_t i = pair[0], j = pair[1];

    *missing = 0;
    while (iterations < max_iterations) {
        const double violation = (grad[j] + low_pen[j]) - (grad[i] + up_pen[i]);
        if (violation <= kkt_tol)
            break;
        if (!filled[i]) {
            *missing = 1;
            break;
        }

        const double *K_i = K + i * n;
        const double *K_j = K + j * n;
        const double curvature = K_i[i] + K_j[j] - 2.0 * K_i[j];
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

        pass(K_i, K_j, 2.0 * clipped, grad, up_pen, low_pen, n, &i, &j);
        iterations++;
    }
    pair[0] = i;
    pair[1] = j;
    return iterations;
}

/* ------------------------------------------------------------------------
 * CSV rows for ``datagen.write_csv_blocks``, byte for byte as its Python
 * twin, ``datagen._python_blocks``, writes them.
 *
 * A row is n_cols cells joined by ',' and ended by "\r\n". A float cell is
 * Python's "%.12g" % x; a code cell is an entry of a table of text that
 * Python formatted.
 *
 * A float cell's 12 significant digits come from one of two places. The
 * fast path scales |x| by an exact power of ten, 10^k with |k| <= 22, so
 * that y = |x| 10^k lies in [1e11, 1e12): one rounding, so y is within
 * half an ulp (2^-14 there) of the exact product. When the fraction of y
 * lies more than 2e-3 from .5, the exact product rounds to the same
 * integer as y, and that integer is the correctly rounded significand.
 * Every other value (|k| > 22, subnormals, a fraction near .5 where the
 * exact product may be a tie or round the other way) is printed exactly by
 * the C library's "%.11e", which rounds ties to even as Python does. Both
 * feed one layout, %g's: fixed notation for decimal exponents -4 to 11,
 * else d.ddde+XX, trailing zeros dropped. -0.0 is "-0", infinities are
 * "inf" and "-inf", and NaN is "nan" whatever its sign (glibc would print
 * "-nan"), as Python writes them. The decimal point is '.' whatever the
 * C locale.
 */

/* a table cell comes from Python; a float cell is at most 19 bytes
 * ("-1.23456789012e-308"), and callers size ``out`` for this many */
#define FLOAT_CELL_BYTES 24

enum { CELL_FLOAT, CELL_CODE };

static const double POW10[23] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static const char DIGIT_PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static void put_pair(char *p, unsigned v)
{
    memcpy(p, DIGIT_PAIRS + 2 * v, 2);
}

static void put_six(char *p, unsigned v)
{
    put_pair(p, v / 10000);
    put_pair(p + 2, v / 100 % 100);
    put_pair(p + 4, v % 100);
}

static double scaled(double v, int k)
{
    return k >= 0 ? v * POW10[k] : v / POW10[-k];
}

/* The 12 digits and decimal exponent of v (finite, > 0) by the fast path;
 * 0 when it cannot vouch for them */
static int fast_digits(double v, char *digits, int *exponent)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const int biased = (int)(bits >> 52);
    if (biased == 0)
        return 0; /* subnormal */
    /* 10^(11 - k) <= 2^(biased - 1023) <= v, so y >= 1e11, and y < 2e12 */
    int k = 11 - (int)floor((biased - 1023) * 0.30102999566398120);
    if (k < -22 || k > 22)
        return 0;
    double y = scaled(v, k);
    if (y >= 1e12) {
        if (--k < -22)
            return 0;
        y = scaled(v, k);
    }
    const double whole = floor(y);
    const double frac = y - whole;
    if (fabs(frac - 0.5) <= 2e-3)
        return 0;
    uint64_t n = (uint64_t)whole + (frac > 0.5);
    int e = 11 - k;
    if (n == 1000000000000u) {
        n = 100000000000u;
        e++;
    }
    if (n < 100000000000u || n >= 1000000000000u)
        return 0;
    put_six(digits, (unsigned)(n / 1000000));
    put_six(digits + 6, (unsigned)(n % 1000000));
    *exponent = e;
    return 1;
}

/* The 12 digits and decimal exponent of v (finite, > 0), exactly rounded
 * by the C library */
static int exact_digits(double v, char *digits)
{
    char text[32];
    const char *s = text;
    int e = 0, negative;

    snprintf(text, sizeof text, "%.11e", v);
    digits[0] = *s++;
    while (*s < '0' || *s > '9')
        s++; /* the locale's decimal point */
    memcpy(digits + 1, s, 11);
    s += 12; /* past the digits and the 'e' */
    negative = *s++ == '-';
    while (*s)
        e = 10 * e + (*s++ - '0');
    return negative ? -e : e;
}

/* "%g" of 0.d1..d12 x 10^(exponent + 1), d1 nonzero, at 12 digits */
static char *lay_out(char *p, const char *digits, int exponent)
{
    int len = 12;
    while (digits[len - 1] == '0')
        len--;
    if (exponent >= -4 && exponent < 12) {
        const int whole = exponent + 1;
        if (whole > 0) {
            memcpy(p, digits, whole);
            p += whole;
            if (len > whole) {
                *p++ = '.';
                memcpy(p, digits + whole, len - whole);
                p += len - whole;
            }
        } else {
            memcpy(p, "0.000", 2 - whole); /* "0." and -whole zeros */
            p += 2 - whole;
            memcpy(p, digits, len);
            p += len;
        }
        return p;
    }
    *p++ = digits[0];
    if (len > 1) {
        *p++ = '.';
        memcpy(p, digits + 1, len - 1);
        p += len - 1;
    }
    *p++ = 'e';
    *p++ = exponent < 0 ? '-' : '+';
    unsigned magnitude = exponent < 0 ? -exponent : exponent;
    if (magnitude >= 100) {
        *p++ = (char)('0' + magnitude / 100);
        magnitude %= 100;
    }
    put_pair(p, magnitude);
    return p + 2;
}

static char *put_float(char *p, double x)
{
    char digits[12];
    int exponent;

    if (x != x) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (x == 0.0) {
        *p++ = '0';
        return p;
    }
    if (x == INFINITY) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (!fast_digits(x, digits, &exponent))
        exponent = exact_digits(x, digits);
    return lay_out(p, digits, exponent);
}

/* Rows start..stop-1 into out; returns the bytes written, or -1 when out
 * (capacity bytes) cannot hold them. Column c's cell of row i is at
 * columns[c] + i * strides[c]: a double when kinds[c] is CELL_FLOAT, else
 * an int32 code e, which stands for table[table_at[e] .. table_at[e + 1]).
 * The caller checks the codes. */
int64_t svdd_csv_rows(int64_t start, int64_t stop, int64_t n_cols, const char *const *columns,
                      const int64_t *strides, const int32_t *kinds, const char *table,
                      const int64_t *table_at, char *out, int64_t capacity)
{
    char *p = out;
    const char *const end = out + capacity;
    int64_t i, c;

    if (n_cols < 1)
        return -1;
    for (i = start; i < stop; i++) {
        for (c = 0; c < n_cols; c++) {
            const char *cell = columns[c] + i * strides[c];
            if (kinds[c] == CELL_FLOAT) {
                double x;
                if (end - p < FLOAT_CELL_BYTES + 2)
                    return -1;
                memcpy(&x, cell, sizeof x);
                p = put_float(p, x);
            } else {
                int32_t code;
                memcpy(&code, cell, sizeof code);
                const int64_t len = table_at[code + 1] - table_at[code];
                if (end - p < len + 2)
                    return -1;
                memcpy(p, table + table_at[code], len);
                p += len;
            }
            *p++ = ',';
        }
        p[-1] = '\r';
        *p++ = '\n';
    }
    return p - out;
}

/* ------------------------------------------------------------------------
 * The body of an unlabeled CSV file for ``cli.read_csv_dataset``: every
 * cell a float64, equal to Python's float() of its text bit for bit.
 *
 * The grammar is a part of what the row loop (``cli._read_csv_rows``)
 * accepts. A cell is an optional sign, digits, an optional '.' and digits
 * (a digit on at least one side of it), and an optional exponent ('e' or
 * 'E', an optional sign, digits), with spaces or tabs around it. Cells are
 * joined by ','; a line ends in "\n" or "\r\n", and the last line may have
 * no ending. A blank line (nothing before its ending) is skipped, as the
 * row loop skips it. Anything else (quotes, a line of spaces, a bare '\r',
 * other whitespace, non-ASCII bytes, '_', nan, inf) refuses the whole
 * file, and the row loop reads it again and decides.
 *
 * A value is one correctly rounded operation. Clinger's fast path: when
 * the significant digits, trailing zeros dropped, make an integer m <= 2^53
 * and the decimal exponent k has |k| <= 22, m and 10^|k| are exact
 * doubles, so m * 10^k (or m / 10^-k) rounds once. Every other cell goes
 * to strtod_l in the C locale, which rounds exactly, as float() does.
 *
 * Python (``_native.csv_floats``) reads the file and hands over blocks of
 * whole lines; it refuses a line longer than a block, so an accepted cell
 * is shorter than csv's default field limit (131,072 characters) whenever
 * a block is.
 */

static locale_t c_locale;

__attribute__((constructor)) static void make_c_locale(void)
{
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

#define IS_SPACE(c) ((c) == ' ' || (c) == '\t')
#define IS_DIGIT(c) ((unsigned)((c) - '0') < 10u)
/* m holds at most this many digits; a longer cell goes to strtod_l, as
 * does one whose exponent passes EXPONENT_CAP */
#define HELD_DIGITS 19
#define EXPONENT_CAP 100000

/* The cell at p, up to end or its separator, into *value; returns the
 * first byte after it and its trailing spaces, or NULL when the cell is
 * outside the grammar. strtod_l reads a longer decimal number than the
 * grammar only through a digit, '.', 'e' or sign at stop, and there is
 * none: the grammar stopped at a byte it does not continue with, or at
 * end, where the line's "\r", "\n" or the NUL after the file stands. */
static const char *parse_cell(const char *p, const char *end, double *value)
{
    uint64_t m = 0; /* the digits, wrapped past HELD_DIGITS */
    int64_t k = 0;  /* the cell is m x 10^k when it holds HELD_DIGITS or fewer */
    int negative = 0;

    while (p < end && IS_SPACE(*p))
        p++;
    const char *const start = p;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    const char *const digits = p;
    for (; p < end && IS_DIGIT(*p); p++)
        m = 10 * m + (uint64_t)(*p - '0');
    int64_t n_digits = p - digits;
    if (p < end && *p == '.') {
        const char *const fraction = ++p;
        for (; p < end && IS_DIGIT(*p); p++)
            m = 10 * m + (uint64_t)(*p - '0');
        k = fraction - p;
        n_digits -= k;
    }
    if (n_digits == 0)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int64_t e = 0;
        int e_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            e_negative = *p++ == '-';
        if (p == end || !IS_DIGIT(*p))
            return NULL;
        for (; p < end && IS_DIGIT(*p); p++)
            if (e < EXPONENT_CAP)
                e = 10 * e + (*p - '0');
        k += e_negative ? -e : e;
    }
    const char *const stop = p;
    while (p < end && IS_SPACE(*p))
        p++;

    if (n_digits <= HELD_DIGITS) {
        if (m == 0) {
            *value = negative ? -0.0 : 0.0;
            return p;
        }
        while (m % 10 == 0) {
            m /= 10;
            k++;
        }
        if (m <= (UINT64_C(1) << 53) && k >= -22 && k <= 22) {
            const double x = k >= 0 ? (double)m * POW10[k] : (double)m / POW10[-k];
            *value = negative ? -x : x;
            return p;
        }
    }
    char *parsed;
    *value = strtod_l(start, &parsed, c_locale);
    return parsed == stop ? p : NULL;
}

/* The n_cols cells of the line at p into values; returns the start of the
 * next line, or NULL when the line is refused. A line ends in "\n" or
 * "\r\n", or at end, which the caller puts only after a "\n" or at the
 * end of the file. */
static const char *parse_row(const char *p, const char *end, int64_t n_cols, double *values)
{
    int64_t c;
    for (c = 0; c < n_cols; c++) {
        if (c > 0) {
            if (p == end || *p != ',')
                return NULL;
            p++;
        }
        p = parse_cell(p, end, values + c);
        if (p == NULL)
            return NULL;
    }
    if (p < end && *p == '\n')
        return p + 1;
    if (end - p >= 2 && p[0] == '\r' && p[1] == '\n')
        return p + 2;
    return p == end ? p : NULL;
}

/* The lines of text[0 .. length): each ends in "\n" but a last one, which
 * ends the file. With out NULL, returns how many are not blank; else
 * parses them, n_cols cells a line and blank lines aside, into out, at most
 * capacity rows, row-major, and returns the rows parsed. Returns -1 when a
 * line is refused or there are more than capacity. text[length] is read,
 * and must not continue a cell: after a "\n" no byte does, and a last line
 * without an ending comes in a Python bytes object, whose buffer CPython
 * always ends with a NUL. */
int64_t svdd_csv_floats(const char *text, int64_t length, int64_t n_cols, double *out,
                        int64_t capacity)
{
    const char *p = text, *const end = text + length;
    int64_t rows = 0;

    if (c_locale == (locale_t)0 || n_cols < 1)
        return -1;
    if (out != NULL) {
        while (p < end) {
            const char *const blank = p + (*p == '\r');
            if (blank < end && *blank == '\n') {
                p = blank + 1;
                continue;
            }
            if (rows == capacity)
                return -1;
            p = parse_row(p, end, n_cols, out + rows * n_cols);
            if (p == NULL)
                return -1;
            rows++;
        }
        return rows;
    }
    for (;;) { /* a blank line holds at most a "\r" */
        const char *const newline = memchr(p, '\n', (size_t)(end - p));
        const char *const stop = newline ? newline : end;
        rows += stop - p > (*p == '\r');
        if (newline == NULL)
            return rows;
        p = newline + 1;
    }
}

/* Squared Euclidean distances between the m rows of A and the n rows of B,
 * each d >= 1 wide and row-major, into out (m x n, row-major):
 * out[i * n + k] = sum over c of (A[i, c] - B[k, c])^2.
 *
 * The compiled twin of the numpy loop ``kernel._numpy_squared_distances``,
 * bit for bit: the first difference is squared, then each later one is
 * squared and added, in coordinate order, and each operation rounds once
 * (the library is built with -ffp-contract=off, so no square is fused
 * into its add). A sum past the float range is +inf, as numpy's is, and
 * nothing is raised or signalled. */
void svdd_sqdist(const double *A, const double *B, int64_t m, int64_t n, int64_t d,
                 double *out)
{
    int64_t i, k, c;
    for (i = 0; i < m; i++) {
        const double *const a = A + i * d;
        double *const row = out + i * n;
        for (k = 0; k < n; k++) {
            const double *const b = B + k * d;
            double diff = a[0] - b[0];
            double sum = diff * diff;
            for (c = 1; c < d; c++) {
                diff = a[c] - b[c];
                sum += diff * diff;
            }
            row[k] = sum;
        }
    }
}
