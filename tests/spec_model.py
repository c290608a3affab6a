"""The Message Authenticator Algorithm as ISO 8731-2 defines it, step by step.

A reference for the tests, written from the standard's definitions in
their own order and names, on plain Python integers, with none of the
engine's shortcuts and no import from ``maa32``: a product is split into
its halves and folded by ADD and CAR, BYT sets the pattern bits first and
then rewrites each byte, and the prelude walks the standard's power chain
one multiplication at a time.  Slow, and meant to be read beside the
standard.
"""

WORD = 2**32

# The masks of the main loop.  MUL1 and MUL2 reuse the names C and D for
# locals, as the standard does.
A = 0x02040801
B = 0x00804021
C = 0xBFEF7FDF
D = 0x7DFEFBFF


def ADD(x, y):
    return (x + y) % WORD


def CAR(x, y):
    return (x + y) // WORD


def HIGH_MUL(x, y):
    return x * y // WORD


def LOW_MUL(x, y):
    return x * y % WORD


def CYC(x):
    return (2 * x) % WORD + x // 2**31


def MUL1(x, y):
    U, L = HIGH_MUL(x, y), LOW_MUL(x, y)
    S, C = ADD(U, L), CAR(U, L)
    return ADD(S, C)


def MUL2(x, y):
    U, L = HIGH_MUL(x, y), LOW_MUL(x, y)
    D, E = ADD(U, U), CAR(U, U)
    F = ADD(D, 2 * E)
    S, C = ADD(F, L), CAR(F, L)
    return ADD(S, 2 * C)


def MUL2A(x, y):
    U, L = HIGH_MUL(x, y), LOW_MUL(x, y)
    D = ADD(U, U)
    S, C = ADD(D, L), CAR(D, L)
    return ADD(S, 2 * C)


def _bytes(x, y):
    """B0..B7: the bytes of X then Y, most significant first."""
    return list(x.to_bytes(4, "big") + y.to_bytes(4, "big"))


def PAT(x, y):
    """The pattern: bit 7 - i is set when byte i is 00 or FF."""
    return sum(2 ** (7 - i) for i, b in enumerate(_bytes(x, y)) if b in (0x00, 0xFF))


def BYT(x, y):
    """The conditioned pair and its pattern.

    Byte i, when it is 00 or FF, is XORed with the pattern's top i + 1
    bits, read as a number.
    """
    P = PAT(x, y)
    octets = _bytes(x, y)
    for i in range(8):
        if octets[i] in (0x00, 0xFF):
            octets[i] ^= P // 2 ** (7 - i)
    return int.from_bytes(bytes(octets[:4]), "big"), int.from_bytes(bytes(octets[4:]), "big"), P


def EXPANSION(J1, K1, Q):
    """H4..H9 from the conditioned key words and Q."""
    J12, J22 = MUL1(J1, J1), MUL2(J1, J1)
    J14, J24 = MUL1(J12, J12), MUL2(J22, J22)
    J16, J26 = MUL1(J12, J14), MUL2(J22, J24)
    J18, J28 = MUL1(J12, J16), MUL2(J22, J26)
    K12, K22 = MUL1(K1, K1), MUL2(K1, K1)
    K14, K24 = MUL1(K12, K12), MUL2(K22, K22)
    K15, K25 = MUL1(K1, K14), MUL2(K1, K24)
    K17, K27 = MUL1(K12, K15), MUL2(K22, K25)
    K19, K29 = MUL1(K12, K17), MUL2(K22, K27)
    H0 = K15 ^ K25
    return J14 ^ J24, MUL2(H0, Q), J16 ^ J26, K17 ^ K27, J18 ^ J28, K19 ^ K29


def PRELUDE(J, K):
    """X0, Y0, V0, W, S, T of the key (J, K)."""
    J1, K1, P = BYT(J, K)
    Q = (1 + P) * (1 + P)
    H4, H5, H6, H7, H8, H9 = EXPANSION(J1, K1, Q)
    X0, Y0, _ = BYT(H4, H5)
    V0, W, _ = BYT(H6, H7)
    S, T, _ = BYT(H8, H9)
    return X0, Y0, V0, W, S, T


def MAIN_LOOP(X, Y, V, W, M):
    """One block M: the new X, Y and V."""
    V = CYC(V)
    E = V ^ W
    X = X ^ M
    Y = Y ^ M
    F = ADD(E, Y)
    G = ADD(E, X)
    F = F | A
    G = G | B
    F = F & C
    G = G & D
    X = MUL1(X, F)
    Y = MUL2A(Y, G)
    return X, Y, V


def MAA(prelude, blocks):
    """Z of one unit: the main loop over the blocks, then the coda over S and T."""
    X, Y, V, W, S, T = prelude
    for M in [*blocks, S, T]:
        X, Y, V = MAIN_LOOP(X, Y, V, W, M)
    return X ^ Y


def MAC(J, K, blocks, prelude=None):
    """The MAC of a message of blocks: the mode of operation over 256-block segments.

    The first segment's Z is prefixed to the second segment, that unit's
    Z to the third, and so on; the last Z is the MAC.  An empty message
    is one empty segment.  ``prelude`` stands in for PRELUDE(J, K).
    """
    prelude = prelude or PRELUDE(J, K)
    blocks = list(blocks)
    Z = MAA(prelude, blocks[:256])
    for start in range(256, len(blocks), 256):
        Z = MAA(prelude, [Z, *blocks[start : start + 256]])
    return Z


def MAC_BYTES(J, K, data):
    """The MAC of bytes, zero-filled to a whole number of blocks."""
    data = bytes(data) + bytes(-len(data) % 4)
    return MAC(J, K, [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)])
