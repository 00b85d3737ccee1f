import json
import random
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from conftest import (
    congruent_form,
    mono,
    rand_hermitian_form,
    rand_invertible,
    rand_plain_map,
    reference_extract_sos,
    reference_inertia,
)
from hermsos import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Inertia,
    NotSOSError,
    affine_split,
    extract_sos,
    grams_equal,
    inertia,
    monomials_of_degree,
    norm_form,
    one_plus_norm,
    r_lambda,
    reduce_minimal,
)
from hermsos import rankdecomp
from hermsos.rankdecomp import _ldlh


def diag_form(values):
    entries = {}
    for k, v in enumerate(values):
        entries[(mono(k), mono(k))] = v
    return HermitianForm.from_entries(1, entries)


@pytest.mark.parametrize(
    "gram, pivot",
    [
        ([[0, 1], [1, 0]], 2),  # c = 1: a_11 + 2 Re(a_10) = 0 + 2
        ([[0, 1], [1, -2]], -4),  # c = 1 gives -2 + 2 = 0, so c = -1: -2 - 2
        ([[0, GR_I], [-GR_I, 0]], 2),  # c = +-1 give 0, so c = i: 0 + 2 Re(i * -i)
    ],
    ids=["c=1", "c=-1", "c=i"],
)
def test_zero_pivot_congruence_choices(gram, pivot):
    form = HermitianForm(1, [mono(0), mono(1)], gram)
    first, second = islice(_ldlh(form.size, form.den, form.cells), 2)
    assert first[:2] == (0, 0) and first[3]  # a zero pivot with a nonzero column
    assert second[:2] == (0, pivot)  # resumed: the same index, moved off zero
    assert inertia(form) == reference_inertia(form) == Inertia(1, 1)


def test_ldlh_passes_over_a_zero_pivot_with_an_empty_column():
    # the zero pivot is yielded once, and no congruence is applied
    gapped = HermitianForm(1, [mono(k) for k in range(3)], [[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    steps = list(_ldlh(gapped.size, gapped.den, gapped.cells))
    assert steps == [(0, 1, 1, [(1, 1, 0)]), (1, 0, 1, []), (2, 2, 1, [])]


def interleaved_cells(corner, real_second=False):
    # blocks {0, 2, 5} and {1, 4, 6} with every cell inside them nonzero, and
    # index 3 a zero 1x1 block; corner is the (0, 0) cell of the first block,
    # and the second block is real symmetric when real_second is set
    first = [[corner, (1, 1), (2, 0)], [(1, -1), (3, 0), (0, 1)], [(2, 0), (0, -1), (4, 0)]]
    if real_second:
        second = [[(2, 0), (1, 0), (1, 0)], [(1, 0), (2, 0), (-1, 0)], [(1, 0), (-1, 0), (5, 0)]]
    else:
        second = [[(2, 0), (1, 0), (1, -1)], [(1, 0), (2, 0), (0, 1)], [(1, 1), (0, -1), (5, 0)]]
    cells = {}
    for members, block in (((0, 2, 5), first), ((1, 4, 6), second)):
        for a, i in enumerate(members):
            for b, j in enumerate(members):
                cells[i, j] = block[a][b]
    return cells


@pytest.mark.parametrize(
    "corner, real_second",
    [((3, 0), False), ((0, 0), False), ((3, 0), True)],
    ids=["psd", "zero-pivot", "psd-beside-a-real-block"],
)
def test_interleaved_blocks_are_eliminated_in_basis_order(corner, real_second):
    # with real_second, one call eliminates a complex and a real block side by side
    cells = interleaved_cells(corner, real_second)
    steps = list(_ldlh(7, 1, cells))
    indices = [k for k, _, _, _ in steps]
    # one pass in basis order; an index comes again only after an indefinite zero pivot
    assert sorted(set(indices)) == list(range(7)) and indices == sorted(indices)
    assert (3, 0, 1, []) in steps
    # columns stay inside their block
    blocks = [{0, 2, 5}, {1, 4, 6}, {3}]
    for k, _, _, column in steps:
        assert all(any({i, k} <= block for block in blocks) for i, _, _ in column)
        if real_second and k in blocks[1]:
            assert all(im == 0 for _, _, im in column)
    gram = [[GaussianRational(*cells.get((i, j), (0, 0))) for j in range(7)] for i in range(7)]
    form = HermitianForm(1, [mono(k) for k in range(7)], gram)
    assert form.size == 6  # the zero row is dropped
    assert inertia(form) == reference_inertia(form)
    try:
        kernel = list(extract_sos(form).weighted_components())
    except NotSOSError as exc:
        kernel = str(exc)
    try:
        reference = reference_extract_sos(form)
    except NotSOSError as exc:
        reference = str(exc)
    assert kernel == reference
    assert isinstance(kernel, list) == (corner != (0, 0))


def test_a_one_index_block_yields_what_either_step_yields():
    # the blocks of interleaved_cells spread over indices 0..9, with three more
    # 1x1 blocks between them: a positive, a negative and a zero pivot
    spread = [0, 2, 3, 5, 6, 7, 9]
    compact = interleaved_cells((3, 0))
    cells = {(spread[i], spread[j]): cell for (i, j), cell in compact.items()}
    singles = {1: 4, 4: -6, 8: 0}
    cells.update({(k, k): (x, 0) for k, x in singles.items() if x})
    steps = list(_ldlh(10, 3, cells))
    # the larger blocks step as they do with no 1x1 block beside them
    alone = [(spread[k], p, s, [(spread[i], x, y) for i, x, y in column])
             for k, p, s, column in _ldlh(7, 3, compact)]
    assert [step for step in steps if step[0] not in singles] == alone
    # index 5 is the zero 1x1 block of interleaved_cells
    for k, x in {**singles, 5: 0}.items():
        real = next(rankdecomp._step([k], [[x]], None, 0, 1, 3))
        complex_ = next(rankdecomp._step([k], [[x]], [[0]], 0, 1, 3))
        assert [step for step in steps if step[0] == k] == [real] == [complex_] == [(k, x, 3, [])]


def interleave(rng, blocks, singles):
    """(size, cells) of the dense blocks given as (size, cells) and one-index
    blocks with the diagonals ``singles``, no cell at all where one is 0, their
    indices shuffled together, each dense block's own order kept."""
    labels = [side for side, (size, _) in enumerate(blocks) for _ in range(size)] + [None] * len(singles)
    rng.shuffle(labels)
    move, cells, taken = [[] for _ in blocks], {}, iter(singles)
    for new, side in enumerate(labels):
        if side is None:
            x = next(taken)
            if x:
                cells[new, new] = (x, 0)
        else:
            move[side].append(new)
    for places, (_, block) in zip(move, blocks):
        cells.update({(places[i], places[j]): cell for (i, j), cell in block.items()})
    return len(labels), cells


def mixed_one_index_cells(rng, psd):
    """A seeded ``_ldlh`` input: up to three dense blocks, each real or complex
    and R^H R or R + R^H, interleaved with one to eight one-index blocks with a
    diagonal in [-3, 3].  With ``psd`` every dense block is R^H R and every
    diagonal at least 0, so the matrix is positive semidefinite."""
    blocks = []
    for _ in range(rng.randint(0, 3)):
        size, complex_ = rng.randint(2, 4), rng.random() < 0.5
        r = [[(rng.randint(-3, 3), rng.randint(-3, 3) if complex_ else 0) for _ in range(size)] for _ in range(size)]
        gram = psd or rng.random() < 0.5
        cells = {}
        for i in range(size):
            for j in range(size):
                if gram:  # sum over k of conj(r_ki) r_kj
                    cell = (sum(a[i][0] * a[j][0] + a[i][1] * a[j][1] for a in r),
                            sum(a[i][0] * a[j][1] - a[i][1] * a[j][0] for a in r))
                else:  # r_ij + conj(r_ji)
                    cell = (r[i][j][0] + r[j][i][0], r[i][j][1] - r[j][i][1])
                if cell != (0, 0):
                    cells[i, j] = cell
        blocks.append((size, cells))
    singles = [rng.randint(0 if psd else -3, 3) for _ in range(rng.randint(1, 8))]
    size, cells = interleave(rng, blocks, singles)
    return size, rng.randint(1, 3), cells


def test_one_index_blocks_among_dense_ones_match_the_references():
    rng = random.Random(2801)
    for t in range(60):
        size, den, cells = mixed_one_index_cells(rng, psd=t % 2 == 0)
        gram = [[GaussianRational(Fraction(x, den), Fraction(y, den))
                 for x, y in (cells.get((i, j), (0, 0)) for j in range(size))] for i in range(size)]
        form = HermitianForm(1, [mono(k) for k in range(size)], gram)
        assert inertia(form) == reference_inertia(form)
        try:
            kernel = list(extract_sos(form).weighted_components())
        except NotSOSError as exc:
            kernel = str(exc)
        try:
            reference = reference_extract_sos(form)
        except NotSOSError as exc:
            reference = str(exc)
        assert kernel == reference
        assert isinstance(kernel, list) or t % 2


def test_a_zero_vector_is_a_zero_one_index_block_of_independent():
    v = {mono(0): (1, 0), mono(1): (0, 2)}
    w = {mono(1): (3, 0)}
    assert rankdecomp._independent([v, {}, w, v, {}]) == [0, 2]
    assert rankdecomp._independent([{}]) == []
    first, last = HoloPoly(1, {mono(0): 1, mono(1): GaussianRational(0, 2)}), HoloPoly(1, {mono(1): 3})
    f = HoloMap(1, [first, HoloPoly.zero(1), last])
    kept, rank = reduce_minimal(f)
    assert rank == 2 and kept == HoloMap(1, [first, last])


# ---------------------------------------------------------------------------
# The rank modulo a prime, and the exact fallback where it falls short
# ---------------------------------------------------------------------------

P, R = rankdecomp._PRIME, rankdecomp._ROOT


def test_the_modulus_is_a_prime_one_mod_four_with_a_square_root_of_minus_one():
    assert P < 2**30 and P % 4 == 1
    assert all(P % d for d in range(2, int(P**0.5) + 1))
    assert R * R % P == P - 1


def test_a_coefficient_equal_to_the_prime_falls_back_to_the_exact_rank():
    u = {mono(0): (1, 0), mono(1): (2, 0)}
    w = {mono(0): (1, 0), mono(1): (2 + P, 0)}  # u mod p, but not u
    for vectors, exact in (([{mono(0): (P, 0)}], [0]), ([u, w], [0, 1]), ([u, w, u], [0, 1])):
        assert rankdecomp._rank_mod_p(vectors) < len(exact)
        assert rankdecomp._independent(vectors) == exact
    x0, x1 = HoloPoly.variable(2, 0), HoloPoly.variable(2, 1)
    f = HoloMap(2, [x0, P * x1, x0 + x1])
    kept, rank = reduce_minimal(f)
    assert rank == 2 and kept == HoloMap(2, [x0, P * x1])


def test_a_gaussian_coefficient_that_reduces_to_zero_falls_back_to_the_exact_rank():
    # i -> r sends -r + i to 0 mod p
    zero_mod_p = {mono(0): (-R, 1), mono(2): (-2 * R, 2)}
    assert rankdecomp._rank_mod_p([zero_mod_p]) == 0
    assert rankdecomp._independent([zero_mod_p]) == [0]
    poly = HoloPoly(1, {mono(1): GaussianRational(-R, 1)})
    assert reduce_minimal(HoloMap(1, [poly, HoloPoly.variable(1, 0)])) == (HoloMap(1, [poly]), 1)


def test_a_complex_dependency_is_a_dependency_modulo_the_prime():
    # v and i*v span one dimension over Q(i); a root other than sqrt(-1) separates them
    v = {mono(0): (1, 0), mono(1): (2, 3), mono(2): (0, -5)}
    iv = {key: (-y, x) for key, (x, y) in v.items()}
    assert rankdecomp._rank_mod_p([v, iv]) == 1
    assert rankdecomp._independent([v, iv]) == [0]
    assert rankdecomp._independent([iv, {mono(3): (7, 0)}, v]) == [0, 1]


# ---------------------------------------------------------------------------
# The kernel's full yield sequence, pinned
# ---------------------------------------------------------------------------

LDLH_YIELDS = Path(__file__).parent / "data" / "ldlh_yields.json"


def pinned_kernel_inputs():
    """Seeded (size, den, cells) inputs of ``_ldlh`` by name: real and complex
    Hermitian matrices with a zero diagonal, which are indefinite and make the
    kernel move zero pivots, and Gram matrices R^H R of a few Gaussian-integer
    rows, positive semidefinite and often singular; the last input puts a
    zero-diagonal block and a PSD block side by side, interleaved, and the one
    after it puts one-index blocks between three dense ones."""
    rng = random.Random(2504)
    inputs = {}

    def entry(complex_):
        return rng.randint(-3, 3), rng.randint(-3, 3) if complex_ else 0

    for t in range(10):
        for kind in ("real", "complex"):
            size, cells = rng.randint(4, 8), {}
            for i in range(size):
                for j in range(i + 1, size):
                    x, y = entry(kind == "complex") if rng.random() < 0.7 else (0, 0)
                    if x or y:
                        cells[i, j], cells[j, i] = (x, y), (x, -y)
            inputs[f"{kind}-zero-diagonal-{t}"] = (size, rng.randint(1, 3), cells)
    for t in range(3):
        for kind in ("real", "complex"):
            size = rng.randint(4, 8)
            rows = [[entry(kind == "complex") for _ in range(size)] for _ in range(rng.randint(2, size))]
            cells = {}
            for i in range(size):
                for j in range(size):
                    x = sum(r[i][0] * r[j][0] + r[i][1] * r[j][1] for r in rows)
                    y = sum(r[i][1] * r[j][0] - r[i][0] * r[j][1] for r in rows)
                    if x or y:
                        cells[i, j] = (x, y)
            inputs[f"{kind}-psd-{t}"] = (size, rng.randint(1, 3), cells)
    # the indices of complex-zero-diagonal-0 and real-psd-0 taken in turn
    blocks = [inputs["complex-zero-diagonal-0"], inputs["real-psd-0"]]
    order = sorted((2 * i + side, side, i) for side, (size, _, _) in enumerate(blocks) for i in range(size))
    move = [{}, {}]
    for new, (_, side, i) in enumerate(order):
        move[side][i] = new
    cells = {(move[side][i], move[side][j]): cell for side, (_, _, block) in enumerate(blocks) for (i, j), cell in block.items()}
    inputs["interleaved"] = (len(order), 2, cells)
    # one-index blocks with a positive, a negative or a zero diagonal between
    # the indices of a real PSD, a complex PSD and a complex zero-diagonal block
    blocks = [inputs[name] for name in ("real-psd-1", "complex-psd-1", "complex-zero-diagonal-2")]
    size, cells = interleave(rng, [(size, block) for size, _, block in blocks], [5, -2, 0, 1, 0, -7, 3, 0])
    inputs["one-index-interleaved"] = (size, 3, cells)
    return inputs


def kernel_yields(size, den, cells):
    """``_ldlh``'s yields as JSON lists, resuming past every zero pivot."""
    return [[k, pivot, scale, [list(entry) for entry in column]] for k, pivot, scale, column in _ldlh(size, den, cells)]


def congruence_choices(steps):
    """The unit c of each zero-pivot congruence, read off the yields alone.

    After row_k += c * row_j and col_k += conj(c) * col_j, with s = a_jk the
    first entry of the zero pivot's column, the new pivot is
    a_jj + 2 Re(c * s) and the new a_jk is s + conj(c) * a_jj.  Eliminating
    the unknown a_jj, c = 1 gives pivot = Re(s + a_jk'), c = -1 gives
    pivot = -Re(s + a_jk') and c = i gives pivot = -Im(s + a_jk'); the
    kernel takes the first that leaves the pivot nonzero, so the first of
    these that holds names it.
    """
    choices = []
    for (k, zero, _, column), (k2, pivot, _, moved) in zip(steps, steps[1:]):
        if k2 != k or zero or not column:
            continue
        j, s_re, s_im = column[0]
        t_re, t_im = next(((x, y) for i, x, y in moved if i == j), (0, 0))
        for c, value in (("1", s_re + t_re), ("-1", -s_re - t_re), ("i", -s_im - t_im)):
            if pivot == value:
                choices.append(c)
                break
        else:
            raise AssertionError(f"no unit congruence explains the pivot at index {k}")
    return choices


def test_ldlh_yields_are_pinned():
    # recorded with the kernel that stored and updated both triangles, and
    # one-index-interleaved with the one that gave a one-index block a 1x1 matrix
    recorded = json.loads(LDLH_YIELDS.read_text(encoding="utf-8"))
    inputs = pinned_kernel_inputs()
    assert sorted(recorded) == sorted(inputs)
    choices = set()  # (kind of the indefinite block, c); interleaved's is complex
    for name, (size, den, cells) in inputs.items():
        steps = kernel_yields(size, den, cells)
        assert steps == recorded[name], name
        kind = "real" if name.startswith("real") else "complex"
        choices.update((kind, c) for c in congruence_choices(steps))
        if "psd" in name:
            assert all(pivot >= 0 for _, pivot, _, _ in steps)
    # every unit occurs, and c = i only in a complex block
    assert choices == {("real", "1"), ("real", "-1"), ("complex", "1"), ("complex", "-1"), ("complex", "i")}


def forced_congruence_form(rng, kind, c):
    """A form of one connected block of 3 to 6 indices whose elimination meets
    an indefinite zero pivot that the unit c, and no earlier one of 1, -1, i,
    moves off zero; every entry is real in a real block.

    S has S[0][0] = 0, s = S[0][1] and d = S[1][1]: c = 1 moves it when
    d + 2 Re(s) != 0, c = -1 when only d - 2 Re(s) != 0, c = i when d = Re(s) = 0
    and Im(s) != 0.  Half the forms are G = L diag(d0, S) L^H, L unit lower
    triangular with only its first column below the diagonal: one step with
    pivot d0 leaves d0 * S, so the move comes at index 1 and the trailing
    update after it divides by d0.  Returns the form and the index of the move.
    """
    real = kind == "real"

    def entry(nonzero=False):
        while True:
            x = GaussianRational(rng.randint(-3, 3), 0 if real else rng.randint(-3, 3))
            if x or not nonzero:
                return x

    m = rng.randint(3, 5)
    s = entry(nonzero=True)
    if c == "1":
        d = rng.randint(-3, 3)
        while d + 2 * s.re == 0:
            d = rng.randint(-3, 3)
    elif c == "-1":
        while not s.re:
            s = entry(nonzero=True)
        d = -2 * s.re
    else:
        s, d = GaussianRational(0, rng.choice((-2, -1, 1, 2))), 0
    S = [[GR_ZERO] * m for _ in range(m)]
    S[0][1], S[1][0], S[1][1] = s, s.conjugate(), GaussianRational(d)
    for i in range(m):
        for j in range(max(i, 2), m):
            x = entry(nonzero=i == 0)  # row 0 keeps the block connected
            if i == j:
                x = GaussianRational(x.re)
            elif i == 0 and j == 2 and not real and not x.im:
                x = x + GR_I  # a complex block has an imaginary cell
            S[i][j], S[j][i] = x, x.conjugate()
    gram, at = S, 0
    if rng.random() < 0.5:
        d0 = rng.choice((-3, -2, -1, 1, 2, 3))
        column = [entry(nonzero=k == 0) for k in range(m)]
        gram = [[GaussianRational(d0)] + [d0 * l.conjugate() for l in column]]
        gram += [[d0 * li] + [d0 * li * lj.conjugate() + S[i][j] for j, lj in enumerate(column)] for i, li in enumerate(column)]
        at = 1
    q = Fraction(1, rng.randint(1, 3))
    gram = [[x * GaussianRational(q) for x in row] for row in gram]
    return HermitianForm(1, [mono(k) for k in range(len(gram))], gram), at


def test_every_congruence_choice_keeps_the_inertia():
    # an oracle for each unit of the zero-pivot move: the kernel's signature
    # against the reference elimination, on forms that force c
    rng = random.Random(3301)
    reached = set()
    for kind, c in (("real", "1"), ("real", "-1"), ("complex", "1"), ("complex", "-1"), ("complex", "i")):
        for _ in range(30):
            form, at = forced_congruence_form(rng, kind, c)
            assert form.size >= 3
            assert all(not im for _, im in form.cells.values()) == (kind == "real")
            steps = list(_ldlh(form.size, form.den, form.cells))
            first = next(t for t, (k, pivot, _, column) in enumerate(steps) if not pivot and column)
            assert steps[first][0] == steps[first + 1][0] == at
            # the trailing update ran after the move: a later index of the block steps
            assert any(k > at for k, _, _, _ in steps[first + 2 :])
            choices = congruence_choices(steps)
            assert choices[0] == c
            reached.update((kind, choice) for choice in choices)
            assert inertia(form) == reference_inertia(form)
    assert {("real", "1"), ("real", "-1"), ("complex", "1"), ("complex", "-1"), ("complex", "i")} <= reached
    assert ("real", "i") not in reached


def test_extract_sos_refuses_a_negative_one_index_block_with_its_witness():
    # a 2x2 block on indices 0 and 2, and the 1x1 block -3/2 between them
    gram = [[2, 0, 1], [0, Fraction(-3, 2), 0], [1, 0, 2]]
    form = HermitianForm(1, [mono(k) for k in range(3)], gram)
    assert inertia(form) == reference_inertia(form) == Inertia(2, 1)
    with pytest.raises(NotSOSError) as kernel:
        extract_sos(form)
    with pytest.raises(NotSOSError) as reference:
        reference_extract_sos(form)
    assert str(kernel.value) == str(reference.value) == "negative pivot -3/2 at z0: not a sum of squares"
    v = kernel.value.witness
    assert v == (GR_ZERO, GR_ONE, GR_ZERO)
    value = sum((v[i].conjugate() * form.gram[i][j] * v[j] for i in range(3) for j in range(3)), GR_ZERO)
    assert value == GaussianRational(Fraction(-3, 2))


def test_inertia_of_a_large_diagonal_form_is_fast():
    # (1 + ||z||^2)(1 + ||f||^2) with f every degree-4 monomial in 6 variables
    # is diagonal: 385 blocks of one index each
    f = HoloMap(6, [HoloPoly(6, {mon: 1}) for mon in monomials_of_degree(6, 4)])
    form = one_plus_norm(HoloMap.variables(6)) * one_plus_norm(f)
    assert form.size == 385
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sig = inertia(form)
        best = min(best, time.perf_counter() - start)
    assert sig == Inertia(385, 0)
    assert best < 0.1


def test_inertia_with_a_zero_trailing_block():
    # u u^H - v v^H with u = (1, 1, 1), v = (1, 0, -1): a zero leading pivot,
    # then a zero 1x1 block after two steps
    indefinite = HermitianForm(1, [mono(k) for k in range(3)], [[0, 1, 2], [1, 1, 1], [2, 1, 0]])
    assert inertia(indefinite) == reference_inertia(indefinite) == Inertia(1, 1)
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(0, 1): GR_I, mono(2, 0): 3})])
    form = norm_form(f)
    assert inertia(form) == reference_inertia(form) == Inertia(1, 0)


def test_inertia_known_diagonals():
    assert inertia(diag_form([1, 4, 6, 4, 1])) == Inertia(5, 0)
    assert inertia(diag_form([1, 4, -1, 4, 1])) == Inertia(4, 1)
    assert inertia(diag_form([1, 4, 0, 4, 1])) == Inertia(4, 0)
    assert inertia(HermitianForm.zero(2)) == Inertia(0, 0)
    assert inertia(diag_form([-2, Fraction(-1, 3)])) == Inertia(0, 2)


def test_inertia_off_diagonal_pivot_paths():
    # zero diagonal, real coupling: signature (1, 1)
    a = HermitianForm(1, [mono(0), mono(1)], [[GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO]])
    assert inertia(a) == Inertia(1, 1)
    # zero diagonal, purely imaginary coupling exercises the i-scaled operation
    b = HermitianForm(1, [mono(0), mono(1)], [[GR_ZERO, GR_I], [-GR_I, GR_ZERO]])
    assert inertia(b) == Inertia(1, 1)


def test_inertia_congruence_invariant():
    rng = random.Random(1001)
    for _ in range(12):
        n = rng.choice((1, 2))
        form = rand_hermitian_form(rng, n)
        sig = inertia(form)
        assert sig.rank <= form.size
        p = rand_invertible(rng, form.size)
        assert inertia(congruent_form(form, p)) == sig


def test_inertia_congruence_invariant_psd():
    rng = random.Random(1002)
    for _ in range(10):
        n = rng.choice((1, 2))
        form = norm_form(rand_plain_map(rng, n, rng.randint(1, 3)))
        sig = inertia(form)
        assert sig.neg == 0
        p = rand_invertible(rng, form.size)
        assert inertia(congruent_form(form, p)) == sig


def test_extract_sos_recomposes_exactly():
    rng = random.Random(1003)
    for _ in range(15):
        n = rng.choice((1, 2, 3))
        f = rand_plain_map(rng, n, rng.randint(1, 3))
        form = norm_form(f)
        s = extract_sos(form)
        assert norm_form(s) == form
        assert len(s) == inertia(form).pos
        assert all(w > 0 for w, _ in s.weighted_components())


def test_extract_sos_rejects_indefinite():
    with pytest.raises(NotSOSError):
        extract_sos(r_lambda(7))
    with pytest.raises(NotSOSError):
        extract_sos(r_lambda(Fraction(13, 2)))
    zero_diag = HermitianForm(1, [mono(0), mono(1)], [[GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO]])
    with pytest.raises(NotSOSError):
        extract_sos(zero_diag)


def test_extract_sos_boundary_lambda():
    s = extract_sos(r_lambda(6))
    assert len(s) == 4
    assert norm_form(s) == r_lambda(6)


def test_extract_sos_off_diagonal_coupling():
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(0, 1): GR_I})])
    form = norm_form(f)
    s = extract_sos(form)
    assert len(s) == 1
    assert norm_form(s) == form


def test_reduce_minimal_known():
    z0 = HoloPoly.variable(2, 0)
    z1 = HoloPoly.variable(2, 1)
    f = HoloMap(2, [z0, 2 * z0, z1])
    basis, rank = reduce_minimal(f)
    assert rank == 2
    assert len(basis) == 2
    # rank agrees with the Gram signature of the squared norm
    assert inertia(norm_form(f)).rank == 2
    empty = HoloMap(2, [])
    assert reduce_minimal(empty)[1] == 0


def test_reduce_minimal_matches_inertia_rank():
    rng = random.Random(1004)
    for _ in range(15):
        n = rng.choice((1, 2))
        f = rand_plain_map(rng, n, rng.randint(1, 4))
        _, rank = reduce_minimal(f)
        assert rank == inertia(norm_form(f)).rank


def test_reduce_minimal_weights_do_not_change_rank():
    z0 = HoloPoly.variable(2, 0)
    z1 = HoloPoly.variable(2, 1)
    plain = HoloMap(2, [z0 + z1, z1])
    weighted = HoloMap(2, [z0 + z1, z1], [Fraction(7, 3), Fraction(1, 9)])
    assert reduce_minimal(plain)[1] == reduce_minimal(weighted)[1] == 2


def test_grams_equal_isometry():
    z0 = HoloPoly.variable(2, 0)
    z1 = HoloPoly.variable(2, 1)
    f = HoloMap(2, [z0, z1])
    # rotation by a rational orthogonal matrix preserves the squared norm
    g = HoloMap(
        2,
        [
            Fraction(3, 5) * z0 + Fraction(4, 5) * z1,
            Fraction(-4, 5) * z0 + Fraction(3, 5) * z1,
        ],
    )
    assert grams_equal(f, g)
    assert not grams_equal(f, HoloMap(2, [z0, 2 * z1]))
    assert not grams_equal(f, HoloMap.variables(1))


def test_affine_split_cases():
    rng = random.Random(1005)
    for _ in range(8):
        n = rng.choice((1, 2))
        p = rng.randint(1, 3)
        f = rand_plain_map(rng, n, p)
        h = affine_split(one_plus_norm(f))
        assert h is not None
        assert len(h) == inertia(norm_form(f)).rank
    # constant coefficient must be exactly 1
    bad_const = HermitianForm.constant(1, 2)
    assert affine_split(bad_const) is None
    # a zero constant coefficient in a nonzero constant row, and no constant at all
    zero_const = HermitianForm(1, [mono(0), mono(1)], [[0, 1], [1, 1]])
    assert affine_split(zero_const) is None
    assert affine_split(diag_form([0, 1])) is None
    # no coupling between the constant and the rest
    coupled = norm_form(HoloMap(1, [HoloPoly(1, {mono(0): 1, mono(1): 1})]))
    assert affine_split(coupled) is None
    # negative block
    assert affine_split(diag_form([1, -1])) is None
    assert affine_split(diag_form([1, 4, -1, 4, 1])) is None
    # the constant alone is 1 + ||h||^2 for the empty map
    assert len(affine_split(HermitianForm.constant(2, 1))) == 0


def test_affine_split_reads_the_first_square_on_its_fields(monkeypatch):
    one, z = mono(0), mono(1)
    # the first square is 1 with weight 2: 2 + |z|^2
    assert affine_split(diag_form([2, 1])) is None
    # one more cell: |1 + z|^2 + |z|^2
    assert affine_split(HermitianForm(1, [one, z], [[1, 1], [1, 2]])) is None
    # den 2: the polynomial 1/2 with weight 1, which no extraction yields, so it is planted
    half = HoloMap(1, [HoloPoly(1, {one: Fraction(1, 2)}), HoloPoly(1, {z: 1})], [Fraction(1), Fraction(1)])
    assert half.components[0].den == 2 and half.components[0].cells == {one: (1, 0)}
    monkeypatch.setattr(rankdecomp, "extract_sos", lambda form: half)
    assert affine_split(diag_form([1, 1])) is None
    # the same square over den 1 splits
    whole = HoloMap(1, [HoloPoly(1, {one: 1}), HoloPoly(1, {z: 1})], [Fraction(1), Fraction(1)])
    monkeypatch.setattr(rankdecomp, "extract_sos", lambda form: whole)
    assert affine_split(diag_form([1, 1])) == HoloMap(1, whole.components[1:], whole.weights[1:])


def test_scaled_map_validation():
    z = HoloPoly.variable(1, 0)
    with pytest.raises(ValueError):
        HoloMap(1, [z], [Fraction(0)])
    with pytest.raises(ValueError):
        HoloMap(1, [z], [Fraction(-1)])
    with pytest.raises(ValueError):
        HoloMap(2, [z], [Fraction(1)])
    for weights in ([], [1, 1]):
        with pytest.raises(ValueError, match="^a weighted map needs one weight per component$"):
            HoloMap(1, [z], weights)
    s = HoloMap(1, [z], [Fraction(1, 2)])
    assert s.vanishes_at_zero
    assert s.max_degree == 1
    assert len(s) == 1


@pytest.mark.parametrize("weight", [0, -1, Fraction(-1, 2)], ids=["0", "-1", "-1/2"])
def test_scaled_map_refuses_a_weight_that_is_not_positive(weight):
    with pytest.raises(ValueError, match="^weights must be positive$"):
        HoloMap(1, [HoloPoly.variable(1, 0)], [weight])


def test_scaled_map_keeps_a_fraction_and_converts_an_int():
    z = HoloPoly.variable(1, 0)
    half = Fraction(1, 2)
    w1, w2 = HoloMap(1, [z, z], [half, 3]).weights
    assert w1 is half
    assert type(w2) is Fraction and w2 == 3
