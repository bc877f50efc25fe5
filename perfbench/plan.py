"""Seeded operation plans for the query and spawn workloads, and the checks
of their answers.

Nothing here imports piord: the answers are judged against the census file
that a separate `piord enumerate` process wrote in ascending order, and
against the depth of the deep operands, never against the timed process.
"""

import random
import re

CENSUS_CAP = 11
# One block of 20 operations holds the mix exactly: 50% cmp, 20% check,
# 10% kset, 10% mvec, 5% sd and 5% bound.  One operand-taking operation of
# each block gets deep operands, so about 5% of operands are deep.
BLOCK = ("cmp",) * 10 + ("check",) * 4 + ("kset",) * 2 + ("mvec",) * 2 + (
    "sd", "bound")
OPERAND_CMDS = ("cmp", "check", "kset", "mvec")
# Deep depths cover 0..MAX_DEPTH in stratified blocks, so every run of a
# few blocks reaches the depths at which the program fails today.
MAX_DEPTH = 400
STRATA = 6

_KSET = re.compile(r"\{.*\}")
_SD_STEP = re.compile(r"(base a=|extend k=)\S")


def deep_term(k):
    """The stage-k bound term psi(Om(1); w^(...w^(K+1)...)), k towers deep."""
    return "psi(Om(1); " + "w^(" * k + "K+1" + ")" * k + ")"


def read_census(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def vectors(census):
    """The coefficient vectors written inside the census terms, sorted."""
    found = set()
    for term in census:
        starts = []
        for i, c in enumerate(term):
            if c == "[":
                starts.append(i)
            elif c == "]":
                found.add(term[starts.pop():i + 1])
    return sorted(found)


def is_psi(term):
    """True when the whole term is one psi(...) application."""
    if not term.startswith("psi("):
        return False
    depth = 0
    for i, c in enumerate(term):
        depth += (c == "(") - (c == ")")
        if c == ")" and depth == 0:
            return i == len(term) - 1
    return False


def _depths(rng):
    while True:
        block = [rng.randrange(j * (MAX_DEPTH + 1) // STRATA,
                               (j + 1) * (MAX_DEPTH + 1) // STRATA)
                 for j in range(STRATA)]
        rng.shuffle(block)
        yield from block


def operations(seed, census):
    """Endless seeded stream of operations over the census terms.

    Each operation is a dict with the CLI arguments, the command, whether
    it has deep operands, and what the answer must be."""
    rng = random.Random(seed)
    depths = _depths(random.Random(seed + 1))
    vecs = vectors(census)
    deltas = [t for t in census if t in ("0", "K") or is_psi(t)]
    n = len(census)
    while True:
        cmds = list(BLOCK)
        rng.shuffle(cmds)
        deep_slot = rng.choice([i for i, c in enumerate(cmds)
                                if c in OPERAND_CMDS])
        for i, cmd in enumerate(cmds):
            deep = i == deep_slot or cmd == "bound"
            if cmd == "cmp":
                if deep:
                    a, b = next(depths), next(depths)
                    argv = [deep_term(a), deep_term(b)]
                else:
                    a, b = rng.randrange(n), rng.randrange(n)
                    argv = [census[a], census[b]]
                expect = "<" if a < b else ("=" if a == b else ">")
            elif cmd == "check":
                term = deep_term(next(depths)) if deep else census[
                    rng.randrange(n)]
                argv, expect = [term], term
            elif cmd == "kset":
                term = deep_term(next(depths)) if deep else census[
                    rng.randrange(n)]
                argv, expect = [rng.choice(deltas), term], None
            elif cmd == "mvec":
                term = deep_term(next(depths)) if deep else census[
                    rng.randrange(n)]
                argv, expect = [term], None
            elif cmd == "sd":
                argv, expect = [rng.choice(vecs)], None
            else:
                k = next(depths)
                argv, expect = ["--n", str(k)], deep_term(k)
            yield {"argv": [cmd] + argv, "cmd": cmd, "deep": deep,
                   "expect": expect}


def judge(op, rc, out):
    """'ok', or 'failed' (error or non-zero exit) or 'wrong' (exit 0 with a
    wrong answer).  rc is None when the call raised."""
    if rc != 0:
        return "failed"
    cmd, expect = op["cmd"], op["expect"]
    if cmd == "cmp":
        good = out == expect + "\n"
    elif cmd == "check":
        good = out.startswith("ok %s (" % expect) and out.endswith(")\n")
    elif cmd == "kset":
        good = _KSET.fullmatch(out.rstrip("\n")) is not None
    elif cmd == "mvec":
        text = out.rstrip("\n")
        good = text == "undefined" or (text.startswith("[")
                                       and text.endswith("]"))
    elif cmd == "sd":
        lines = out.rstrip("\n").split("\n")
        good = lines == ["not in SD"] or all(_SD_STEP.match(x) for x in lines)
    else:
        good = out == expect + "\n"
    return "ok" if good else "wrong"
