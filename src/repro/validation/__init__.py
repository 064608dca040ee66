"""Model validation against (synthetic) real-machine measurements.

The paper validates its pipeline and router models by chilling three
generations of Intel desktop CPUs to 135 K on an LN2 evaporator rig and
measuring the maximum stable core/uncore frequencies (Fig. 8/9), and its
wire-link model against Hspice (Fig. 10). Without a dewar on hand, this
package builds the measurement *campaign* synthetically: the "silicon"
behaviour is generated from an independent physical path (ITRS node
projection of wire/transistor temperature response, plus measurement
noise and boot-failure quantisation), so comparing the CC-Model
predictions against it is a genuine check, not a tautology.
"""
