"""Single and double substitutions of a determinant set, listed per spin
string, without those the integrals make zero.

Each unique alpha and beta string of the set lists its singles and doubles
once, in one table for both channels (after Knowles & Handy, CPL 111, 315,
1984).  A member's substitutions are its strings' entries combined: the
singles and doubles of one channel with the other channel's string kept,
and the products of an alpha and a beta single.  A substitution runs from
the member (the ket) to its target (the bra), the direction in which the
kernel of :mod:`qselci.hamiltonian` evaluates the element, and those whose
element the integrals make zero for every occupation are left out before
anything is evaluated (the heat-bath rule of Holmes, Tubman & Umrigar,
JCTC 12, 3674, 2016, with the threshold at exactly zero):

* a single p -> a where h[a,p], every (ap|ii) and every (ai|ip) are zero;
* a same-spin double m, m' -> a, b where (am'|bm) and (am|bm') are zero;
* an opposite-spin double m -> a, m' -> b where (am|bm') is zero; the
  singles are first pruned to those with some (am|..) or (..|am) nonzero,
  so their products are never formed.

The kernel would compute each element left out as +-0.0 and drop it, so
the screen changes the work, not the results.  ``Substitutions.blocks``
yields the substitutions as (target key, member) arrays for runs of
members; ``build_subspace`` matches the targets with the set's own rows,
and ``expansion`` collects those outside the set into its pool.
``move_counts`` gives each member's singles and doubles in closed form,
before any screen: ``estimate_count`` prices a set's substitutions from
them without listing any, so that ``build_subspace`` can screen every pair
instead where that is cheaper, and ``expansion`` caps its pairs with them.
"""

import numpy as np

# Orbital moves screened per pass when the tables are built: the boolean
# screen of a run of strings stays at about 1 MB.
MOVE_BLOCK = 1 << 20
_ONE = np.uint64(1)


def runs(keys):
    """np.unique(keys, return_inverse=True) of a sorted array, without its
    sort."""
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], np.cumsum(first) - 1


def _packed(row, *values, n_rows):
    """Per-row lists of entries, given by their ``row`` index, as
    (n_rows, longest list) arrays padded with zeros, each list in the
    order its entries were given: one per array of ``values``, then the
    mask of the entries and each row's count."""
    order = np.argsort(row, kind="stable")
    row, values = row[order], [v[order] for v in values]
    count = np.bincount(row, minlength=n_rows)
    width = count.max(initial=0)
    if len(row) == n_rows * width:  # every list full: nothing to pad
        return [v.reshape(n_rows, width) for v in values] + [
            np.ones((n_rows, width), bool), count]
    col = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    kept = np.zeros((n_rows, width), bool)
    kept[row, col] = True
    packed = [np.zeros(kept.shape, v.dtype) for v in values]
    for a, v in zip(packed, values):
        a[row, col] = v
    return [*packed, kept, count]


def _moves(strings, holes, parts, allowed):
    """(string, target, code) arrays of the allowed moves of ``strings``,
    string by string: ``holes`` and ``parts`` are (bits, code) pairs of
    (strings, moves) arrays, and ``allowed[hole_code, part_code]`` screens
    them, for about MOVE_BLOCK moves of a run of strings at a time."""
    step = max(1, MOVE_BLOCK // max(1, holes[1].shape[1] * parts[1].shape[1]))
    found = []
    for lo in range(0, len(strings), step):
        u, x, y = np.nonzero(allowed[holes[1][lo:lo + step, :, None],
                                     parts[1][lo:lo + step, None, :]])
        u += lo
        found.append((u, strings[u] ^ holes[0][u, x] ^ parts[0][u, y],
                      holes[1][u, x] * allowed.shape[1] + parts[1][u, y]))
    return found


def _strings(strings):
    """The unique strings of one spin channel, ordered by electron count,
    then value, and the row of each input string among them."""
    order = np.lexsort((strings, np.bitwise_count(strings)))
    unique, rows = runs(strings[order])
    row = np.empty_like(rows)
    row[order] = rows
    return unique, row


def _tables(unique, n, single, double, paired):
    """The allowed moves of each string of ``unique`` (as ``_strings``
    orders them), packed (``_packed``) as target strings and codes, in two
    tables: the singles and doubles the screens ``single`` and ``double``
    allow, and the singles ``paired`` allows into products with the other
    channel's."""
    counts = np.bitwise_count(unique).astype(np.intp)
    bit = _ONE << np.arange(n, dtype=np.uint64)
    none = np.zeros(0, np.intp), np.zeros(0, np.uint64), np.zeros(0, np.intp)
    kinds = [[none], [none]]
    ks, starts = np.unique(counts, return_index=True)
    for k, lo, hi in zip(ks, starts, [*starts[1:], len(unique)]):
        s = unique[lo:hi]  # the strings with k electrons
        filled = (s[:, None] >> np.arange(n, dtype=np.uint64)) & _ONE
        occ = np.nonzero(filled)[1].reshape(len(s), k)
        emp = np.nonzero(filled == 0)[1].reshape(len(s), n - k)
        one = [(bit[occ], occ), (bit[emp], emp)]
        two = []
        for o in occ, emp:  # the pairs i < j of a string's orbitals
            i, j = np.nonzero(np.less.outer(*[np.arange(o.shape[1])] * 2))
            two.append((bit[o[:, i]] | bit[o[:, j]], o[:, i] * n + o[:, j]))
        for kind, moves in zip(kinds, (
                _moves(s, *one, single) + _moves(s, *two, double),
                _moves(s, *one, paired))):
            kind += [(u + lo, target, code) for u, target, code in moves]
    return [_packed(*map(np.concatenate, zip(*kind)), n_rows=len(unique))
            for kind in kinds]


def _ranked(table, strings, scale, floor):
    """The moves of a packed table whose target lies in the sorted
    ``strings``, past the rank ``floor`` of their row, packed as target
    ranks times ``scale`` and codes."""
    target, code, valid, count = table
    rank = np.searchsorted(strings, target)
    kept = valid & (strings[np.minimum(rank, len(strings) - 1)] == target)
    kept &= rank > floor[:, None]
    if np.array_equal(kept, valid):  # nothing dropped: already packed
        return rank * scale, code, valid, count
    u, k = np.nonzero(kept)
    return _packed(u, rank[u, k] * scale, code[u, k], n_rows=len(valid))


def move_counts(masks, n):
    """Each member's singles k(n - k) and doubles k(n - k)(k - 1)(n - k -
    1) / 4 per channel, k its electrons there, before any screen: (N, 2)
    float arrays of exact integers."""
    k = np.bitwise_count(masks).astype(float)
    singles = k * (n - k)
    return singles, singles * (k - 1) * (n - k - 1) / 4


def estimate_count(masks, h, g):
    """The substitutions of the mask rows ``masks`` that the integrals
    allow, estimated without listing any: each member's count of singles,
    doubles and alpha x beta single pairs (``move_counts``), times the
    share of orbital pairs (a, p) with some h[a,p] or (ap|..) nonzero, of
    nonzero (pq|rs), and of pairs with some (ap|..) nonzero twice over."""
    n = len(h)
    singles, doubles = move_counts(masks, n)
    reach = np.count_nonzero(g.reshape(n * n, -1), axis=1) > 0
    share = np.count_nonzero(reach | (h.ravel() != 0)) / n ** 2
    return float(share * singles.sum() + np.count_nonzero(g) / n ** 4
                 * doubles.sum() + (np.count_nonzero(reach) / n ** 2) ** 2
                 * singles[:, 0] @ singles[:, 1])


class Substitutions:
    """The allowed substitutions of the (N, 2) uint64 mask rows ``masks``
    under the one-electron array ``h`` and the dense two-electron ``g``, as
    tables with a row per unique string of either channel.  Each screen
    also keeps a move whose reverse it keeps, so a pair of members is found
    from either end (the integrals of a table are symmetric, and then this
    keeps nothing more)."""

    def __init__(self, masks, h, g):
        n, nz = len(h), g != 0
        # screens indexed [hole code, particle code]: p and a for a single,
        # m * n + m' and a * n + b for a double; opposite-spin products
        # [alpha m * n + a, beta m' * n + b]
        single = ((h != 0) | np.diagonal(nz, axis1=2, axis2=3).any(2)
                  | np.diagonal(nz, axis1=1, axis2=2).any(2))
        double = (nz | nz.transpose(0, 3, 2, 1)).transpose(1, 3, 0, 2)
        double = double.reshape(n * n, n * n)
        opposite = nz.transpose(1, 0, 3, 2)
        opposite = opposite | opposite.transpose(1, 0, 3, 2)
        # None when the integrals allow every product of allowed singles
        self.opposite = None if opposite.all() else opposite.ravel()
        self.n = n
        # one table for the strings of both channels
        self.unique, rows = _strings(masks.ravel())
        self.rows = rows.reshape(-1, 2).T
        self.tables = _tables(self.unique, n, single | single.T,
                              double | double.T,
                              opposite.any((2, 3)) | opposite.any((0, 1)))

    def reached(self):
        """The sorted strings that the members have or reach by an allowed
        move, in either channel."""
        return runs(np.sort(np.concatenate(
            [self.unique] + [t[v] for t, _, v, _ in self.tables])))[0]

    def blocks(self, sets, budget, members, upper=False):
        """(key, member) arrays of every allowed substitution whose target
        strings lie in the sorted ``sets`` of each channel, the members' own
        strings included: the key is ``alpha_rank * len(sets[1]) +
        beta_rank``.  ``upper`` keeps only targets whose key is above their
        member's, so each pair of members is found once.  The members are
        taken in the order of the index array ``members``, in runs of at
        least one whose substitutions number at most ``budget`` before the
        opposite-spin screen, one yield per run."""
        scales = len(sets[1]), 1
        rows, own, tables = [], [], []
        for row, strings, scale in zip(self.rows, sets, scales):
            mine = np.searchsorted(strings, self.unique)
            rows.append(row[members])
            own.append(mine[row] * scale)
            # a target's key is above its member's when its alpha rank is,
            # or, for a beta move, its beta rank; so a product of singles
            # is cut on its alpha single alone
            low = np.full(len(mine), -1)
            floors = (mine if upper else low,
                      mine if upper and scale > 1 else low)
            tables.append([_ranked(kind, strings, scale, floor)
                           for kind, floor in zip(self.tables, floors)])
        (alpha, alpha_pairs), (beta, beta_pairs) = tables
        moves = [(alpha, 0), (beta, 1)]
        cost = alpha_pairs[3][rows[0]] * beta_pairs[3][rows[1]]
        for table, c in moves:
            cost += table[3][rows[c]]
        total = np.cumsum(cost)
        lo = 0
        while lo < len(cost):
            hi = max(lo + 1, int(np.searchsorted(
                total, total[lo] - cost[lo] + budget, "right")))
            r, member = [rows[0][lo:hi], rows[1][lo:hi]], members[lo:hi]
            keys, found = [], []
            for table, c in moves:
                moved, _, kept = _trimmed(table, r[c])
                _append(keys, found, moved + own[1 - c][member, None], kept,
                        member)
            (xa, ca, ka), (xb, cb, kb) = (_trimmed(alpha_pairs, r[0]),
                                          _trimmed(beta_pairs, r[1]))
            kept = ka[:, :, None] & kb[:, None, :]
            if self.opposite is not None:
                kept &= self.opposite[ca[:, :, None] * self.n ** 2
                                      + cb[:, None, :]]
            _append(keys, found, xa[:, :, None] + xb[:, None, :], kept, member)
            yield np.concatenate(keys), np.concatenate(found)
            lo = hi


def _trimmed(table, rows):
    """The rows ``rows`` of a packed table, cut to the longest of their
    lists: (moved, code, kept)."""
    moved, code, kept, count = table
    at = rows, slice(count[rows].max(initial=0))
    return moved[at], code[at], kept[at]


def _append(keys, found, moved, kept, member):
    """Append the kept keys of an array with a row per member, and their
    members, row by row."""
    if kept.all():
        keys.append(moved.ravel())
        found.append(np.repeat(member, moved.size // len(member)))
    else:
        keys.append(moved[kept])
        shape = (-1,) + (1,) * (moved.ndim - 1)
        found.append(np.broadcast_to(member.reshape(shape), moved.shape)[kept])
