"""Binary linear block codes backing the lattice constructions.

Two codes ship here: the (24,12,8) extended Golay code, which supplies the
fine-coding layer of the 24-dimensional constellation, and the (8,4,4)
extended Hamming code, a small stand-in for exhaustive tests.  The (n, n-1)
single-parity-check code of the mod-4 layer (the even sum of D_n in
H_n = 2 D_n + C) is not built as a code: the lattice decoders enforce it
with one parity repair (see ``lattices``), which reads the code layer's
share off ``weights``.  Soft-decision decoding is exact maximum likelihood.
The scalar decoder scans the whole codebook (4096 x 24 multiply-adds per
Golay word).  The batch decoder first decodes through the code's block
structure (for Golay, the sextet and its 128 hexacode cosets; see
``_BlockDecoder``) and scans only the rows where that cannot rule out a
tie, so it returns exactly what the scan would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinaryBlockCode",
    "SoftDecodeResult",
    "GOLAY",
    "HAMMING8",
]


@dataclass(frozen=True)
class SoftDecodeResult:
    codeword: np.ndarray
    metric: float
    message_index: int


class BinaryBlockCode:
    """An (n, k) binary linear code given by a generator matrix.

    The full codebook (2^k codewords) and its int64 ``weights`` are built
    once; encode, membership and exhaustive soft-ML decoding all run off
    them.  Intended for k <= 16.
    """

    def __init__(self, generator, d_min: int | None = None, name: str = ""):
        g = np.asarray(generator, dtype=np.uint8) % 2
        if g.ndim != 2:
            raise ValueError("generator must be a 2-D binary matrix")
        self.k, self.n = g.shape
        self.generator = g
        self.name = name or f"({self.n},{self.k})"
        if self.k > 16:
            raise ValueError("exhaustive codebook limited to k <= 16")
        # message_of and is_codeword read the message off the first k bits
        if not np.array_equal(g[:, : self.k], np.eye(self.k, dtype=np.uint8)):
            raise ValueError(f"{self.name}: generator must be systematic, [I | B]")
        self._place = 1 << np.arange(self.k, dtype=np.int64)
        msgs = (np.arange(1 << self.k, dtype=np.uint32)[:, None]
                >> np.arange(self.k, dtype=np.uint32)) & 1
        self.codebook = (msgs.astype(np.uint8) @ g) % 2
        self.weights = self.codebook.sum(axis=1, dtype=np.int64)
        self.d_min = int(self.weights[1:].min()) if self.k > 0 else self.n
        if d_min is not None and self.d_min != d_min:
            raise ValueError(
                f"{self.name}: declared minimum distance {d_min}, actual {self.d_min}"
            )
        # float view used by the decoders' matrix products
        self._book_f = self.codebook.astype(np.float64)
        self._blocks = _BlockDecoder.find(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinaryBlockCode({self.name}, d_min={self.d_min})"

    def encode(self, message) -> np.ndarray:
        m = np.asarray(message, dtype=np.uint8)
        if m.shape != (self.k,):
            raise ValueError(f"message must have length {self.k}")
        return (m @ self.generator) % 2

    def message_of(self, codeword) -> np.ndarray:
        """Recover the message of a systematic codeword (first k coordinates)."""
        c = np.asarray(codeword, dtype=np.uint8)
        return c[: self.k].copy()

    def is_codeword(self, word) -> bool:
        """True when ``word`` is n entries, each exactly 0 or 1, forming a codeword.

        The message bits index the codebook row to compare against; any entry
        other than 0 or 1 differs from that row.
        """
        w = np.asarray(word)
        if w.shape != (self.n,):
            return False
        return bool((self.codebook[w[: self.k].astype(bool) @ self._place] == w).all())

    def weight_enumerator(self) -> dict[int, int]:
        """Exhaustive weight distribution {weight: count} over all codewords."""
        w, c = np.unique(self.weights, return_counts=True)
        return {int(a): int(b) for a, b in zip(w, c)}

    def is_self_dual(self) -> bool:
        return self.k * 2 == self.n and not ((self.generator @ self.generator.T) % 2).any()

    # -- soft-decision ML ---------------------------------------------------

    def soft_ml_decode(self, cost0, cost1) -> SoftDecodeResult:
        """Exact ML decode against per-coordinate costs.

        cost0[j] / cost1[j] is the penalty for deciding bit j as 0 / 1
        (typically squared distances to the nearest even/odd representative).
        Scans all 2^k codewords; ties resolve to the lowest message index.
        """
        c0 = np.asarray(cost0, dtype=np.float64)
        c1 = np.asarray(cost1, dtype=np.float64)
        if c0.shape != (self.n,) or c1.shape != (self.n,):
            raise ValueError(f"cost vectors must have length {self.n}")
        metrics = self._book_f @ (c1 - c0)
        idx = int(np.argmin(metrics))
        return SoftDecodeResult(
            codeword=self.codebook[idx].copy(),
            metric=float(metrics[idx] + c0.sum()),
            message_index=idx,
        )

    def soft_ml_decode_batch(self, cost0: np.ndarray, cost1: np.ndarray) -> np.ndarray:
        """Vectorized soft_ml_decode: (B, n) cost tables -> (B,) message indices.

        Codes with a block structure (Golay, extended Hamming, even weight)
        go through ``_BlockDecoder`` first, which answers every row whose
        best codeword beats all others by a clear margin.  The remaining rows,
        ties among them, get the exhaustive scan, in chunks so the (chunk,
        2^k) metric matrix stays around 64 MB.  Either way the answer is the
        scan's, ties included.
        """
        delta = np.asarray(cost1, dtype=np.float64) - np.asarray(cost0, dtype=np.float64)
        if self._blocks is None:
            out = np.empty(delta.shape[0], dtype=np.int64)
            scan = np.arange(delta.shape[0])
        else:
            out, sure = self._blocks.decode(delta)
            scan = np.flatnonzero(~sure)
        chunk = max(1, (1 << 23) // (1 << self.k))
        for lo in range(0, scan.size, chunk):
            part = scan[lo : lo + chunk]
            out[part] = np.argmin(delta[part] @ self._book_f.T, axis=1)
        return out


# Lead that a block-decoded winner needs over every other codeword, per
# coset-total term and relative to S = sum_j |cost1[j] - cost0[j]|; rows with
# a smaller lead go to the scan.  The coset tables are float32, and a total of
# t = n/b + 1 terms is off by under t * 2**-23 * S, so a lead of t * 1e-6 * S
# is real; it is also far above the scan's float64 rounding, so the scan
# picks the same winner.
_BLOCK_MARGIN = 1e-6


class _BlockDecoder:
    """Soft-ML decoding through a partition of the coordinates into blocks.

    It applies when the n coordinates split into n / b blocks of b = d_min / 2
    such that any two blocks together form a codeword: the sextet of the
    Golay code, parallel pairs for the extended Hamming code, single
    coordinates for an even-weight code.  Then the words made of an even
    number of whole blocks form a subcode C0, and the code is the union of
    2^(k - n/b + 1) cosets of C0.  Within a coset each block carries one of
    two complementary patterns, free except for the parity of how many take
    their second pattern; so the best word of a coset is each block's
    cheaper pattern, plus the cheapest single swap if that parity is wrong.
    For the Golay code this is the hexacode decoder of Conway and Sloane,
    "Soft decoding techniques for codes and lattices, including the Golay
    code and the Leech lattice" (IEEE Trans. IT 32(1), 1986), here in the
    coordinates the code's own codebook supplies.

    ``decode`` also bounds the runner-up: the second-best coset total, and
    within the best coset the next-cheapest swap set (the two smallest gaps
    when the parity is right, the second smallest gap minus the smallest
    when it is wrong).  A row counts as sure only when the winner beats that
    bound by _BLOCK_MARGIN * (n/b + 1) * sum_j |delta_j|.
    """

    def __init__(self, code: BinaryBlockCode, blocks: np.ndarray):
        nb, b = blocks.shape
        half, full = 1 << (b - 1), (1 << b) - 1
        self.blocks = blocks
        self.full = full
        # Bit t of a block pattern is coordinate blocks[c, t].  pattern_bits
        # has the `half` patterns with a clear top bit as its first columns,
        # then their complements in the same order.
        bits = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1  # (2^b, b)
        clear = np.arange(half)
        self.pattern_bits = bits[np.concatenate([clear, clear ^ full])].T.astype(np.float64)
        # Every codeword's coset label, packed in one integer: per block the
        # pattern pair (b - 1 bits), then the parity of the blocks carrying
        # the second pattern of their pair.
        book = code.codebook.astype(np.int64)
        patterns = (book[:, blocks] << np.arange(b)).sum(axis=2)
        second = patterns >> (b - 1)
        pairs = np.where(second == 1, patterns ^ full, patterns)
        shifts = (b - 1) * np.arange(nb + 1)
        labels = np.unique((pairs << shifts[:nb]).sum(axis=1) | (second.sum(axis=1) & 1) << shifts[nb])
        self.pair = (labels[:, None] >> shifts[:nb]) & (half - 1)  # (R, nb)
        self.parity = (labels >> shifts[nb]) & 1 == 1              # (R,)
        self.flat = np.arange(nb) * half + self.pair             # (R, nb)
        # Integer key of a word (bit j weighs 2**j), block by block.  Codebook
        # row i holds the bits of i in its first k coordinates (the generator
        # is systematic), so a codeword's key masked to its low k bits is its
        # message index.
        weights = np.int64(1) << np.arange(code.n, dtype=np.int64)
        self.block_keys = bits @ weights[blocks].T               # (2^b, nb)
        self.message_mask = (1 << code.k) - 1

    @classmethod
    def find(cls, code: BinaryBlockCode) -> _BlockDecoder | None:
        """The block decoder of ``code``, or None if it has no such partition.

        The first block is coordinates 0..b-1; the other blocks are what the
        weight-2b codewords containing it add.
        """
        d, n = code.d_min, code.n
        b = d // 2
        # Words must fit an int64 key, and each block's 2^b patterns a table.
        if d % 2 or n % b or n > 62 or b > 8:
            return None
        nb = n // b
        book = code.codebook.astype(bool)
        joined = book[(book.sum(axis=1) == d) & book[:, :b].all(axis=1)]
        blocks = [np.arange(b)] + [np.flatnonzero(w[b:]) + b for w in joined]
        if len(blocks) != nb or not np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n)):
            return None
        return cls(code, np.array(blocks))

    def _work_tables(self, rows: int) -> list[np.ndarray]:
        """decode's work tables for ``rows`` rows: metric, both (per row, then
        per block pattern), swap, low, gap (per block pattern), total, fix,
        part, odd, flips (per coset), as views of one flat byte buffer, laid
        end to end at 64-byte boundaries.

        One block rather than ten tables keeps the Monte Carlo loop off fresh
        pages: glibc raises its mmap and trim thresholds to the size of a
        freed mapped block, so from the second batch on this block comes
        from the heap.  Ten tables of up to 384 KiB each raise them less,
        and are mapped or trimmed, and faulted in again, batch after batch."""
        nb, b = self.blocks.shape
        entries, cosets = (nb << (b - 1), rows), (len(self.parity), rows)
        tables = ([((rows * nb, 1 << b), np.float64), ((2,) + entries, np.float64),
                   (entries, bool)]
                  + [(entries, np.float32)] * 2
                  + [(cosets, np.float32)] * 3 + [(cosets, bool)] * 2)
        sizes = [-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
                 for shape, dtype in tables]
        buf = np.empty(sum(sizes), np.uint8)
        views, at = [], 0
        for (shape, dtype), size in zip(tables, sizes):
            views.append(buf[at : at + size].view(dtype)[: math.prod(shape)].reshape(shape))
            at += size
        return views

    def decode(self, delta: np.ndarray):
        """(message indices, sure) for each row of delta = cost1 - cost0.

        The per-coset tables are laid out (cosets, rows), so that gathering
        a block's entries for every coset copies whole rows.  They are
        filled in place in one fresh buffer (see ``_work_tables``).
        """
        rows = delta.shape[0]
        nb, b = self.blocks.shape
        half = 1 << (b - 1)
        metric, both, swap, low, gap, total, fix, part, odd, flips = self._work_tables(rows)
        # One 2-D product: the stacked (rows, nb, b) form is about half as fast.
        np.matmul(delta[:, self.blocks].reshape(rows * nb, b), self.pattern_bits, out=metric)
        # first[c * half + p] and second[c * half + p]: block c's pattern p
        # and its complement, one entry per decoded row.
        np.copyto(both.reshape(2, nb, half, rows),
                  metric.reshape(rows, nb, 2, half).transpose(2, 1, 3, 0))
        first, second = both
        np.less(second, first, out=swap)
        np.minimum(first, second, out=low)
        np.subtract(second, first, out=gap)
        np.abs(gap, out=gap)

        # Per coset: sum of the blocks' cheaper patterns, parity of the
        # swaps that takes, and the cheapest single swap to mend it.  mode
        # "clip" lets take write straight into ``out``; the entries are
        # always in range.
        entry = self.flat[:, 0]
        np.take(low, entry, axis=0, out=total, mode="clip")
        np.take(swap, entry, axis=0, out=odd, mode="clip")
        odd ^= self.parity[:, None]
        np.take(gap, entry, axis=0, out=fix, mode="clip")
        for c in range(1, nb):
            entry = self.flat[:, c]
            total += np.take(low, entry, axis=0, out=part, mode="clip")
            odd ^= np.take(swap, entry, axis=0, out=flips, mode="clip")
            np.minimum(fix, np.take(gap, entry, axis=0, out=part, mode="clip"), out=fix)
        total += np.multiply(fix, odd, out=part)

        r = np.argmin(total, axis=0)
        at = np.arange(rows)
        best = total[r, at]
        total[r, at] = np.inf
        runner_up = total.min(axis=0)
        chosen = self.flat[r]                                    # (rows, nb)
        gaps = gap[chosen, at[:, None]]
        two = np.sort(gaps, axis=1)[:, :2]
        odd_r = odd[r, at]
        within = np.where(odd_r, two[:, 1] - two[:, 0], two[:, 0] + two[:, 1])
        sure = np.minimum(runner_up - best, within) > _BLOCK_MARGIN * (nb + 1) * np.abs(delta).sum(axis=1)

        flip = swap[chosen, at[:, None]]
        flip[at, np.argmin(gaps, axis=1)] ^= odd_r
        pattern = np.where(flip, self.pair[r] ^ self.full, self.pair[r])
        key = self.block_keys[pattern, np.arange(nb)].sum(axis=1)
        return key & self.message_mask, sure


# Systematic [I | B] generator of the extended Golay code.  B is the standard
# bordered-circulant block; the constructor re-verifies (24, 12, 8) and the
# self-duality of the span, so a corrupted constant cannot load silently.
_GOLAY_B = [
    [1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1],
    [1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1],
    [0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
    [1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1],
    [0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1],
    [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1],
    [0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
]


def _build_golay() -> BinaryBlockCode:
    gen = np.hstack([np.eye(12, dtype=np.uint8), np.array(_GOLAY_B, dtype=np.uint8)])
    code = BinaryBlockCode(gen, d_min=8, name="Golay(24,12,8)")
    if not code.is_self_dual():
        raise AssertionError("Golay generator failed the self-duality check")
    return code


GOLAY = _build_golay()

# Extended Hamming (8,4,4): the small self-dual stand-in used by the
# reduced-dimension lattice tests, where exhaustive oracles are affordable.
HAMMING8 = BinaryBlockCode(
    np.hstack([
        np.eye(4, dtype=np.uint8),
        (1 - np.eye(4, dtype=np.uint8)).astype(np.uint8),
    ]),
    d_min=4,
    name="ExtHamming(8,4,4)",
)
