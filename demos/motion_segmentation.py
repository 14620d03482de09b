"""
Segmenting independently moving objects
=======================================

Flows from one rigid relative motion all point through a shared
epipole, and their collision counts agree. RANSAC over flow pairs
exploits both constraints to split a mixed set of noisy tracks into
per-object clusters without knowing the number of objects.
"""

import numpy as np

from ttckit import (
    CameraIntrinsics,
    ClusteringConfig,
    Scenario,
    SceneObject,
    cluster_flows,
    simulate,
)

rng = np.random.default_rng(42)
intrinsics = CameraIntrinsics(focal_px=700.0, principal_point=(320.0, 240.0))

# three rigid objects, eight tracked points each, distinct headings
centers = [
    (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
    (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
    (np.array([0.5, -0.8, 16.0]), np.array([0.3, -0.08, -1.2])),
]
objects = tuple(
    SceneObject(f"obj{i}", c + rng.uniform(-0.7, 0.7, size=(8, 3)), v)
    for i, (c, v) in enumerate(centers)
)
scenario = Scenario(
    intrinsics=intrinsics,
    objects=objects,
    camera_velocity=np.zeros(3),
    frame_count=9,
    pixel_noise_sigma=0.3,   # detection noise on every observation
    rng_seed=42,
)
tracks, truth = simulate(scenario)
print(f"simulated {len(tracks)} tracks over {scenario.frame_count} frames, "
      f"pixel noise sigma = {scenario.pixel_noise_sigma}")

clusters, outliers = cluster_flows(tracks, config=ClusteringConfig(rng_seed=42), intrinsics=intrinsics)

print(f"\nfound {len(clusters)} clusters, {len(outliers)} outliers\n")
print("cluster  size  members                  epipole (u, v)       mean TTC  residual px")
for c_idx, cluster in enumerate(clusters):
    members = ",".join(str(m) for m in cluster.member_indices)
    e = cluster.epipole.position
    print(
        f"  {c_idx}       {len(cluster.member_indices):2d}   {members:24s}"
        f" ({e[0]:8.2f}, {e[1]:7.2f})  {cluster.mean_ttc:7.2f}  {cluster.epipole.residual:.3f}"
    )

# grade against the simulator's labels: tracks 0-7 belong to obj0, etc.
print("\ntruth check:")
for c_idx, cluster in enumerate(clusters):
    labels = {truth.points[m].object_id for m in cluster.member_indices}
    e_err = np.abs(
        np.asarray(cluster.epipole.position)
        - np.asarray(truth.points[cluster.member_indices[0]].epipole)
    ).max()
    print(f"  cluster {c_idx}: objects {sorted(labels)}, epipole error {e_err:.2f} px")
