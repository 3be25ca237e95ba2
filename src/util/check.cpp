#include "util/check.hpp"

#include <cstdlib>
#include <iostream>

namespace poco
{

void
panic(const std::string& msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

} // namespace poco
