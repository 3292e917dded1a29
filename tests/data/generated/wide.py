def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    c1 = unset
    if i < count:
        v = values[i]
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    c1 = v
    i += 1
    u0_0 = c1
    u0_1 = (c1 + k2)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k3)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k4)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k5)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k6)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k7)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k8)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k9)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k10)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k11)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k12)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    u0_0 = c1
    u0_1 = (c1 + k13)
    s0_0 = hash(u0_0)
    s0_1 = hash(u0_1)
    pending.append(((), (u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((), (u0_0,), (u0_1,))))
    close(tuple(pending))
    return gaps
