#include "support/thread_count.hh"

#include <fstream>
#include <string>

namespace mopt {

int
threadCount()
{
    std::ifstream f("/proc/self/status");
    std::string word;
    while (f >> word)
        if (word == "Threads:") {
            int n = 0;
            f >> n;
            return n;
        }
    return -1;
}

} // namespace mopt
