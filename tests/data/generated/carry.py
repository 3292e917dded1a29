def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    h6 = []
    c1 = unset
    c4 = unset
    def loop5():
        nonlocal i, steps, c1, c4
        for _ in range(max_rounds):
            if (len(h6) == c1):
                u0 = len(h6)
                hash(u0)
                pending.append(((u0,),))
                break
            else:
                u0 = c1
                hash(u0)
                if i < count:
                    v = values[i]
                else:
                    v = draw(i, d7)
                steps += 2
                if pending:
                    close((*pending, ((), (u0,))))
                    pending.clear()
                else:
                    close((((), (u0,)),))
                if steps > max_steps: too_long(max_steps)
                h6.append(v)
                i += 1
        else:
            too_many_rounds(max_rounds)
    if i < count:
        v = values[i]
        if not d0.contains(v): raise InputRejectedError(i, v, d0)
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    c1 = v
    i += 1
    u0 = c1
    hash(u0)
    pending.append(((u0,),))
    if (c1 == k2):
        if i < count:
            v = values[i]
        else:
            v = draw(i, d3)
        steps += 2 if pending else 1
        close(tuple(pending))
        pending.clear()
        if steps > max_steps: too_long(max_steps)
        c4 = v
        i += 1
    else:
        pass
    u0 = (c4 if c4 is not unset else unbound(n4))
    hash(u0)
    pending.append(((), (u0,)))
    loop5()
    close(tuple(pending))
    return gaps
