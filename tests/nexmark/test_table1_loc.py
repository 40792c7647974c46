"""Table 1: lines of code of the NEXMark query implementations.

The paper compares hand-tuned native implementations against Megaphone's
stateful operator interface; for most stateful queries the native version
is longer because frontier bookkeeping and pending-work management are
hand-written.  This counts the non-blank, non-comment source lines of both
variants in this reproduction and checks the directions that hold against
the paper's: six of eight.  Q5's Megaphone variant is longer (its flush
chain costs lines) and Q8's two variants are equally long, where the
paper has both shorter under Megaphone.
"""

import inspect

import pytest

from repro.nexmark.queries import QUERIES, common

PAPER_NATIVE = {1: 12, 2: 14, 3: 58, 4: 128, 5: 73, 6: 130, 7: 55, 8: 58}
PAPER_MEGAPHONE = {1: 16, 2: 18, 3: 41, 4: 74, 5: 46, 6: 74, 7: 54, 8: 29}
# The queries whose native-vs-Megaphone direction matches the paper's.
SAME_DIRECTION = (1, 2, 3, 4, 6, 7)

# The closed-auction subplan is shared by Q4 and Q6 and counted for both,
# as in the paper.
_SHARED = {
    "native": [common._NativeClosedAuctionsLogic, common.closed_auctions_native],
    "megaphone": [common.closed_auctions_fold, common.closed_auctions_megaphone],
}


def _loc(objects) -> int:
    return sum(
        1
        for obj in objects
        for line in inspect.getsource(obj).splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def count_loc(query: int, variant: str) -> int:
    module = QUERIES[query]
    if variant == "native":
        objects = [module.native] + [
            obj
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and name.startswith("_Native")
        ]
    elif query == 5:
        # Q5's Megaphone variant reuses the native global-max stage.
        objects = [module.megaphone, module._NativeGlobalMaxLogic]
    else:
        objects = [module.megaphone]
    if query in (4, 6):
        objects += _SHARED[variant]
    return _loc(objects)


@pytest.mark.parametrize("query", SAME_DIRECTION)
def test_loc_direction_matches_the_paper(query):
    paper_shorter = PAPER_MEGAPHONE[query] < PAPER_NATIVE[query]
    ours_shorter = count_loc(query, "megaphone") < count_loc(query, "native")
    assert ours_shorter == paper_shorter
