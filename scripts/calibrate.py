"""Tables 5/6, paper vs measured: run after any cost-model change."""

from repro.harness import table5, table6
from repro.harness.fidelity import evaluate, render

if __name__ == "__main__":
    print(render(evaluate({"table5": table5(), "table6": table6()})))
