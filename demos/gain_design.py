"""Walk through the static gain design for the bundled six-agent benchmark.

Shows each ingredient the coupling design consumes: the Riccati solution for
the plant, the Fiedler value of the graph, and the input amplitude bound, and
how they combine into the two coupling strengths.
"""

import numpy as np

import avgtrack as at


def main() -> None:
    scn = at.parse_scenario(at.scenario_config("paper-sec5-static"))
    plant = scn.reference_set.plant

    sol = at.solve_are(plant.A, plant.B, scn.design_Q)
    print("plant A:\n", plant.A)
    print("Riccati solution P:\n", sol.P)
    print(f"Riccati residual: {sol.residual_norm:.2e} ({sol.iterations} Newton steps)")

    lam2 = scn.graph.lambda2
    f0 = scn.f0
    print(f"graph Fiedler value lambda2 = {lam2:.4f}")
    print(f"input amplitude bound f0 = {f0:.4f}")

    gains = scn.build_static_gains()
    print("feedback gain K =", gains.K)
    print(f"c1 = 1/(2*lambda2) = {gains.c1:.4f}")
    print(f"c2 = f0*(N-1) = {gains.c2:.4f}")

    consts = at.theorem_constants(gains.P, scn.design_Q, scn.graph, f0)
    print(f"guaranteed decay rate gamma = {consts.gamma:.4f}")


if __name__ == "__main__":
    main()
