"""Compare the smoothed coupling against the discontinuous sign law.

Same two-agent scenario, same gains; the only difference is whether the
unit-direction term is smoothed by the shrinking boundary layer. The
discontinuous version chatters: its edge coupling signal flips direction
almost every step once the agents are close.
"""

import numpy as np

import avgtrack as at
from avgtrack.control import edge_signals


def main() -> None:
    plant = at.LinearPlant(A=[[0.0, 1.0], [-1.0, -2.0]], B=[[0.0], [1.0]])
    rs = at.ReferenceSet(
        plant=plant,
        initial_states=np.array([[1.0, 0.0], [-1.0, 0.5]]),
        inputs=(
            at.InputDescriptor(kind="sinusoid", amp=[1.0], omega=1.0),
            at.InputDescriptor(kind="sinusoid", amp=[0.5], omega=2.0, phase=1.0),
        ),
    )
    g = at.Graph(2, ((0, 1),))
    gains = at.design_gains(plant, g, np.eye(2), f0=1.0)
    cfg = at.SimConfig(t_end=10.0, dt=1e-3, record_every=1)

    for mode in ("static", "discontinuous"):
        traj = at.run(g, rs, gains, cfg, mode=mode)
        quarter = traj.times >= 0.75 * traj.times[-1]
        w = np.array([edge_signals(x, gains.K, g)[0] for x in traj.x[quarter]])
        flips = at.direction_flip_count(w)
        err = float(np.linalg.norm(at.tracking_error(traj.x[-1], traj.r[-1])))
        print(f"{mode:15s} direction flips (final quarter) = {flips:5d}   "
              f"final tracking error = {err:.3e}")


if __name__ == "__main__":
    main()
